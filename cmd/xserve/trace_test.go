package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/telemetry/span"
)

// dumpTracesOnFailure writes the server's captured traces under
// $XC_TRACE_ARTIFACTS/<test-name> when the test fails, so a CI failure
// ships the flight recorder's evidence as a build artifact.
func dumpTracesOnFailure(t *testing.T, s *server) {
	t.Cleanup(func() {
		root := os.Getenv("XC_TRACE_ARTIFACTS")
		if root == "" || !t.Failed() {
			return
		}
		dir := filepath.Join(root, strings.ReplaceAll(t.Name(), "/", "_"))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("trace artifacts: %v", err)
			return
		}
		n, err := s.recorder.DumpDir(dir)
		t.Logf("trace artifacts: dumped %d traces to %s (err=%v)", n, dir, err)
	})
}

// treeSpans collects every span with the given name, depth-first.
func treeSpans(v span.SpanView, name string) []span.SpanView {
	var out []span.SpanView
	if v.Name == name {
		out = append(out, v)
	}
	for _, c := range v.Children {
		out = append(out, treeSpans(c, name)...)
	}
	return out
}

func getTrace(t *testing.T, url, id string) span.TraceView {
	t.Helper()
	resp, err := http.Get(url + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s = %d: %s", id, resp.StatusCode, data)
	}
	var v span.TraceView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("trace JSON: %v: %s", err, data)
	}
	return v
}

// TestConflictTraceForensics is the acceptance path: a conflicting
// /v1/docs update answers 409 with a trace_id, and /v1/trace/{id}
// replays the handler, queue wait, admission verdict (fired semantics
// + how the window entries were settled), and — on the committed
// update it collided with — the WAL append and fsync spans with
// durations.
func TestConflictTraceForensics(t *testing.T) {
	s := newStoreServer(t, t.TempDir())
	dumpTracesOnFailure(t, s)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	c := ts.Client()

	resp, body := doJSON(t, c, "POST", ts.URL+"/v1/docs", map[string]any{"doc": "d", "xml": "<a/>"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d: %v", resp.StatusCode, body)
	}
	base := body["lsn"].(float64)

	resp, body = doJSON(t, c, "POST", ts.URL+"/v1/docs/d/update",
		map[string]any{"op": "insert", "pattern": "/a", "x": "<x/>"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert = %d: %v", resp.StatusCode, body)
	}
	okID, _ := body["trace_id"].(string)
	if okID == "" {
		t.Fatalf("committed update has no trace_id: %v", body)
	}

	// delete //x against the pre-insert base does not commute with the
	// committed insert of <x/>: rejected, with forensics.
	resp, body = doJSON(t, c, "POST", ts.URL+"/v1/docs/d/update",
		map[string]any{"op": "delete", "pattern": "//x", "base_lsn": base})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale delete = %d, want 409: %v", resp.StatusCode, body)
	}
	tid, _ := body["trace_id"].(string)
	if tid == "" {
		t.Fatalf("409 envelope has no trace_id: %v", body)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != tid {
		t.Fatalf("X-Trace-Id %q != envelope trace_id %q", got, tid)
	}

	// The conflicting request's span tree.
	v := getTrace(t, ts.URL, tid)
	if v.Root.Name != "docs.update" {
		t.Fatalf("root span = %q, want docs.update", v.Root.Name)
	}
	if len(treeSpans(v.Root, "queue.wait")) != 1 {
		t.Fatal("trace does not name the queue wait")
	}
	adm := treeSpans(v.Root, "store.admit")
	if len(adm) != 1 {
		t.Fatalf("store.admit spans = %d, want 1", len(adm))
	}
	a := adm[0]
	// delete //x can change the points of insert /a <x/>, so the static
	// screen leaves the one window entry to the concrete check.
	if a.Attrs["conflict"] != true || a.Attrs["fired"] == "" ||
		a.Attrs["concrete"] != float64(1) || a.Attrs["static"] != float64(0) {
		t.Fatalf("admit verdict attrs incomplete: %+v", a.Attrs)
	}
	for _, key := range []string{"sem", "base_lsn", "with_lsn", "with_kind", "window"} {
		if _, has := a.Attrs[key]; !has {
			t.Fatalf("admit span missing %q: %+v", key, a.Attrs)
		}
	}
	hasConflictFlag := false
	for _, f := range v.Flags {
		if f == "conflict" {
			hasConflictFlag = true
		}
	}
	if !hasConflictFlag {
		t.Fatalf("trace flags = %v, want conflict (always-kept capture)", v.Flags)
	}

	// The committed update it collided with shows the durability spans.
	okv := getTrace(t, ts.URL, okID)
	for _, name := range []string{"store.update", "store.admit", "store.wal.append", "store.fsync"} {
		got := treeSpans(okv.Root, name)
		if len(got) != 1 {
			t.Fatalf("committed trace: %s spans = %d, want 1", name, len(got))
		}
		if got[0].Open || got[0].DurationUs < 0 {
			t.Fatalf("committed trace: %s span has no closed duration: %+v", name, got[0])
		}
	}

	// Unknown IDs answer the uniform 404 envelope.
	resp404, err := http.Get(ts.URL + "/v1/trace/ffffffffffffffffffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404", resp404.StatusCode)
	}
}

// TestTraceparentContinuation: an incoming W3C traceparent pins the
// trace ID so an external caller can correlate, and the reply emits a
// traceparent for the next hop.
func TestTraceparentContinuation(t *testing.T) {
	s, ts := testServer(t, 2)
	dumpTracesOnFailure(t, s)
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest("POST", ts.URL+"/v1/detect",
		strings.NewReader(`{"read":"//C","insert":"/*/B","x":"<C/>"}`))
	req.Header.Set("traceparent", "00-"+tid+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != tid {
		t.Fatalf("X-Trace-Id = %q, want the inbound trace ID %q", got, tid)
	}
	tp := resp.Header.Get("traceparent")
	if !strings.HasPrefix(tp, "00-"+tid+"-") {
		t.Fatalf("response traceparent = %q, want continuation of %q", tp, tid)
	}
	// The continued trace is fetchable under the caller's ID, and its
	// tree reaches the detector.
	v := getTrace(t, ts.URL, tid)
	if len(treeSpans(v.Root, "detect.cached")) == 0 {
		t.Fatal("continued trace does not reach the detector cache")
	}
}

// TestRetryAfterClampAndMemoization pins the [1, 60] clamp on both
// edges and the short-TTL memo that keeps load-shed storms from
// re-walking the latency histogram per rejection.
func TestRetryAfterClampAndMemoization(t *testing.T) {
	s := newServer(1, time.Second, 1<<20)
	if got := s.retryAfter("detect"); got != "1" {
		t.Fatalf("no observations: %q, want 1 (lower clamp)", got)
	}
	for i := 0; i < 20; i++ {
		s.metrics.Timer("serve.detect").Observe(2 * time.Hour)
	}
	// Inside the TTL the derivation must not rerun: stale hint.
	if got := s.retryAfter("detect"); got != "1" {
		t.Fatalf("inside TTL: %q, want memoized 1", got)
	}
	// After expiry the recomputed hint hits the upper clamp.
	s.retry["detect"].until.Store(0)
	if got := s.retryAfter("detect"); got != "60" {
		t.Fatalf("after expiry: %q, want 60 (upper clamp)", got)
	}
}

// TestDebugRequestsJSONUnderLoad: the flight-recorder listing stays
// valid JSON while traffic churns the rings, and a listed trace is
// readable at /v1/trace/{id}.
func TestDebugRequestsJSONUnderLoad(t *testing.T) {
	s, ts := testServer(t, 4)
	dumpTracesOnFailure(t, s)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/detect", "application/json",
					strings.NewReader(`{"read":"//C","insert":"/*/B","x":"<C/>"}`))
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	var snap span.RecorderSnapshot
	for i := 0; i < 50; i++ {
		resp, err := http.Get(ts.URL + "/debug/requests")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/debug/requests = %d: %s", resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatalf("poll %d: invalid JSON: %v: %.200s", i, err, data)
		}
	}
	close(stop)
	wg.Wait()
	if snap.Total == 0 || len(snap.Recent) == 0 {
		t.Fatalf("recorder saw no traffic: %+v", snap)
	}
	// Per-trace detail parses too.
	resp, err := http.Get(ts.URL + "/v1/trace/" + snap.Recent[0].TraceID)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var v span.TraceView
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &v) != nil {
		t.Fatalf("/v1/trace/{id} = %d: %.200s", resp.StatusCode, data)
	}
}

// TestErrorTraceCaptured: a contained handler panic earns the error
// flag, so the trace is an always-kept capture.
func TestErrorTraceCaptured(t *testing.T) {
	s, ts := testServer(t, 2)
	dumpTracesOnFailure(t, s)
	// An unknown semantics name inside a batch item reaches parsePair
	// and 400s; a panic needs faultinject — use the degraded path
	// instead: a search with a tiny candidate budget degrades and must
	// be captured.
	resp, data := postDetect(t, ts.URL, `{"read":"//A[B][C]/D","delete":"//B","max_nodes":6,"max_candidates":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded detect = %d: %s", resp.StatusCode, data)
	}
	var dr detectResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Complete {
		t.Skip("search completed within one candidate; cannot exercise degradation here")
	}
	tid := resp.Header.Get("X-Trace-Id")
	v := getTrace(t, ts.URL, tid)
	found := false
	for _, f := range v.Flags {
		if f == "degraded" {
			found = true
		}
	}
	if !found {
		t.Fatalf("degraded request's trace flags = %v, want degraded", v.Flags)
	}
}

// TestObserveLayers folds a hand-built trace: every closed span below
// the root feeds the timer named after it exactly once, with the trace
// as exemplar. The root is skipped even though an engine span below it
// shares its name, and an open span is skipped while its closed child
// still counts.
func TestObserveLayers(t *testing.T) {
	const tid = "0af7651916cd43dd8448eb211c80319c"
	root := span.SpanView{Name: "detect", DurationUs: 900, Children: []span.SpanView{
		{Name: "queue.wait", DurationUs: 5},
		{Name: "serve.detect", DurationUs: 800, Children: []span.SpanView{
			{Name: "detect", DurationUs: 700, Children: []span.SpanView{
				{Name: "search", DurationUs: 600, Open: true, Children: []span.SpanView{
					{Name: "shrink", DurationUs: 40},
				}},
			}},
		}},
	}}
	m := telemetry.New()
	observeLayers(m, tid, root)
	snap := m.Snapshot()
	want := map[string]time.Duration{
		"queue.wait":   5 * time.Microsecond,
		"serve.detect": 800 * time.Microsecond,
		"detect":       700 * time.Microsecond,
		"shrink":       40 * time.Microsecond,
	}
	for name, d := range want {
		ts := snap.Timers[name]
		if ts.Count != 1 || ts.Total != d || ts.MaxTraceID != tid {
			t.Errorf("%s: count %d, total %v, exemplar %q; want 1, %v, %q", name, ts.Count, ts.Total, ts.MaxTraceID, d, tid)
		}
	}
	if len(snap.Timers) != len(want) {
		t.Errorf("timers = %v, want exactly %d (open span skipped)", snap.Timers, len(want))
	}
}

// TestMetricsFoldRequestLayers: one document update and one detection
// through the real routes leave an aggregate for every layer their
// traces hold — a nonzero _count and a trace exemplar on /metrics — and
// the slot spans' exemplars name the requests that produced them.
func TestMetricsFoldRequestLayers(t *testing.T) {
	s := newStoreServer(t, t.TempDir()) // fsync always
	dumpTracesOnFailure(t, s)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	c := ts.Client()

	if resp, out := doJSON(t, c, "POST", ts.URL+"/v1/docs", map[string]any{"doc": "d", "xml": "<a/>"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d: %v", resp.StatusCode, out)
	}
	resp, out := doJSON(t, c, "POST", ts.URL+"/v1/docs/d/update", map[string]any{"op": "insert", "pattern": "/a", "x": "<x/>"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update = %d: %v", resp.StatusCode, out)
	}
	updateID := resp.Header.Get("X-Trace-Id")
	dresp, data := postDetect(t, ts.URL, `{"read":"//C","insert":"/*/B","x":"<C/>"}`)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("detect = %d: %s", dresp.StatusCode, data)
	}
	detectID := dresp.Header.Get("X-Trace-Id")

	mresp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(body)
	for _, layer := range []string{
		"queue_wait", "serve_docs", "serve_detect", "store_update", "store_admit",
		"store_apply", "store_wal_append", "store_fsync", "detect_cached",
	} {
		pn := "xmlconflict_" + layer + "_seconds"
		var count int
		if _, err := fmt.Sscanf(lineWithPrefix(text, pn+"_count "), pn+"_count %d", &count); err != nil || count < 1 {
			t.Errorf("%s_count missing or zero (err %v) in /metrics:\n%s", pn, err, text)
		}
		if lineWithPrefix(text, "# EXEMPLAR "+pn+" ") == "" {
			t.Errorf("no exemplar for %s", pn)
		}
	}
	for pn, id := range map[string]string{"serve_docs": updateID, "serve_detect": detectID} {
		want := fmt.Sprintf("# EXEMPLAR xmlconflict_%s_seconds trace_id=%q", pn, id)
		if !strings.Contains(text, want) {
			t.Errorf("missing %q: the slot span's exemplar must name its request", want)
		}
	}
}

// lineWithPrefix returns the first line of text starting with prefix,
// or "".
func lineWithPrefix(text, prefix string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// TestRetryAfterFromTraffic: the Retry-After hint follows real traffic,
// not only hand-fed timers. One document update held 1.1 s by an
// injected fsync latency reaches the docs hint through its folded
// serve.docs span (p90 1.1 s, rounded up to 2); the detect route saw no
// traffic and keeps its 1-second floor.
func TestRetryAfterFromTraffic(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := newStoreServer(t, t.TempDir()) // fsync always
	s.retryTTL = 0
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	c := ts.Client()

	if resp, out := doJSON(t, c, "POST", ts.URL+"/v1/docs", map[string]any{"doc": "d", "xml": "<a/>"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d: %v", resp.StatusCode, out)
	}
	faultinject.Arm("store.fsync", faultinject.Fault{Kind: faultinject.KindLatency, Delay: 1100 * time.Millisecond, Times: 1})
	if resp, out := doJSON(t, c, "POST", ts.URL+"/v1/docs/d/update", map[string]any{"op": "insert", "pattern": "/a", "x": "<x/>"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("update = %d: %v", resp.StatusCode, out)
	}
	if got := s.retryAfter("docs"); got != "2" {
		t.Errorf("docs Retry-After = %q after a 1.1 s update, want 2", got)
	}
	if got := s.retryAfter("detect"); got != "1" {
		t.Errorf("detect Retry-After = %q with no detect traffic, want 1", got)
	}
}
