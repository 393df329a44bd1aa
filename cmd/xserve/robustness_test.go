package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHTTPServerTimeoutsConfigured: the server must not accept
// connections without read/write/idle deadlines (slowloris exposure).
func TestHTTPServerTimeoutsConfigured(t *testing.T) {
	srv := defaultTimeouts().server(http.NewServeMux())
	if srv.ReadHeaderTimeout <= 0 {
		t.Fatal("ReadHeaderTimeout unset")
	}
	if srv.ReadTimeout <= 0 {
		t.Fatal("ReadTimeout unset")
	}
	if srv.WriteTimeout <= 0 {
		t.Fatal("WriteTimeout unset")
	}
	if srv.IdleTimeout <= 0 {
		t.Fatal("IdleTimeout unset")
	}
	// The write timeout must comfortably exceed the read-header one: it
	// covers the whole detection.
	if srv.WriteTimeout < srv.ReadHeaderTimeout {
		t.Fatalf("WriteTimeout %v < ReadHeaderTimeout %v", srv.WriteTimeout, srv.ReadHeaderTimeout)
	}
}

// TestInflightGaugeDrainsToZero: the gauge must track releases, not just
// acquisitions — after all load completes it reads 0, not the
// high-water mark.
func TestInflightGaugeDrainsToZero(t *testing.T) {
	s := newServer(4, 10*time.Second, 1<<20)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/detect", "application/json",
				strings.NewReader(`{"read":"//C","insert":"/*/B","x":"<C/>"}`))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
	if got := s.metrics.Gauge("serve.inflight").Load(); got != 0 {
		t.Fatalf("inflight gauge = %d after load drained, want 0", got)
	}
}

// TestCanceledRequestFreesSlot: a client disconnecting mid-detection
// must cancel the search and release the pool slot promptly, not pin it
// until the search runs dry.
func TestCanceledRequestFreesSlot(t *testing.T) {
	s := newServer(1, 5*time.Second, 1<<20)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)

	// A heavy NP search: branching read, deep bound, tens of millions of
	// candidates — far longer than this test unless cancellation works.
	heavy := `{"read":"a[b][c]/d","delete":"z/w","max_nodes":8,"max_candidates":50000000}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/detect", strings.NewReader(heavy))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()
	// Let the detection start, then hang up.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.Gauge("serve.inflight").Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("detection never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("expected the canceled request to error client-side")
	}

	// The slot must come back and the cancellation must be counted.
	for s.metrics.Gauge("serve.inflight").Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("pool slot never released after cancel")
		}
		time.Sleep(time.Millisecond)
	}
	if s.metrics.Counter("serve.canceled").Load() == 0 {
		t.Fatal("cancellation not counted")
	}
	// And the next request gets the slot immediately.
	resp, data := postDetect(t, ts.URL, `{"read":"//C","insert":"/*/B","x":"<C/>"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after cancel: status = %d (%s)", resp.StatusCode, data)
	}
}

// TestRetryAfterTracksLatency: the 503 backoff hint follows the observed
// detection latency p90 instead of a hardcoded constant.
func TestRetryAfterTracksLatency(t *testing.T) {
	s, ts := testServer(t, 1)
	// Disable the short-TTL memo so the hint reflects the observations
	// injected below immediately (memoization has its own test).
	s.retryTTL = 0
	if got := s.retryAfter("detect"); got != "1" {
		t.Fatalf("retryAfter with no observations = %q, want \"1\"", got)
	}
	for i := 0; i < 20; i++ {
		s.metrics.Timer("serve.detect").Observe(5 * time.Second)
	}
	s.pool <- struct{}{}
	defer func() { <-s.pool }()
	resp, data := postDetect(t, ts.URL, `{"read":"//C","insert":"/*/B"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", resp.StatusCode, data)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer", resp.Header.Get("Retry-After"))
	}
	// The log-bucketed quantile is an upper estimate of the 5s latency,
	// and the clamp caps it at 60.
	if secs < 5 || secs > 60 {
		t.Fatalf("Retry-After = %d, want within [5, 60] for a 5s p90", secs)
	}
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

func TestBatchDetect(t *testing.T) {
	s, ts := testServer(t, 2)
	// Three distinct pairs, each repeated — the shared cache should show
	// hits in /metrics afterwards.
	body := `{"pairs":[
		{"read":"//C","insert":"/*/B","x":"<C/>"},
		{"read":"//A","delete":"//B"},
		{"read":"a[b]/c","delete":"a/c","max_nodes":4,"max_candidates":2000},
		{"read":"//C","insert":"/*/B","x":"<C/>"},
		{"read":"//A","delete":"//B"},
		{"read":"a[b]/c","delete":"a/c","max_nodes":4,"max_candidates":2000}
	]}`
	resp, data := postJSON(t, ts.URL+"/v1/detect/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var br batchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatalf("bad JSON %q: %v", data, err)
	}
	if len(br.Results) != 6 {
		t.Fatalf("%d results, want 6", len(br.Results))
	}
	// Order is preserved: repeats carry the same verdict as the original.
	for i := 0; i < 3; i++ {
		a, b := br.Results[i], br.Results[i+3]
		if a.Conflict != b.Conflict || a.Method != b.Method || a.Detail != b.Detail {
			t.Fatalf("result %d and its repeat %d differ: %+v vs %+v", i, i+3, a, b)
		}
	}
	if !br.Results[0].Conflict {
		t.Fatalf("//C vs insert /*/B must conflict: %+v", br.Results[0])
	}
	hits, misses := s.cache.Counts()
	if misses != 3 || hits != 3 {
		t.Fatalf("cache counts = %d hits / %d misses, want 3 / 3", hits, misses)
	}

	// The cache counters surface on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"xmlconflict_detector_cache_hits 3", "xmlconflict_detector_cache_misses 3"} {
		if !strings.Contains(string(mdata), want) {
			t.Fatalf("missing %q in /metrics:\n%s", want, mdata)
		}
	}
}

func TestBatchDetectRejections(t *testing.T) {
	_, ts := testServer(t, 1)
	for _, tc := range []struct {
		body, wantErr string
	}{
		{`{"pairs":[]}`, "non-empty"},
		{`{"pairs":[{"read":"//A","insert":"//B","tree":"<a/>"}]}`, "pair 0"},
		{`{"pairs":[{"read":"//A","insert":"//B","schema":"root a"}]}`, "pair 0"},
		{`{"pairs":[{"read":"//A","insert":"//B","workers":2}]}`, "unknown field"},
		{`{"pairs":[{"read":"//A","insert":"//B"},{"read":"//A"}]}`, "pair 1"},
	} {
		resp, data := postJSON(t, ts.URL+"/v1/detect/batch", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status = %d (%s), want 400", tc.body, resp.StatusCode, data)
		}
		if !strings.Contains(string(data), tc.wantErr) {
			t.Fatalf("body %q: error %q does not mention %q", tc.body, data, tc.wantErr)
		}
	}
}

func TestAnalyzeEndpoint(t *testing.T) {
	_, ts := testServer(t, 2)
	// The Section 1 imperative fragment: the //C read depends on the
	// insert, the //A read does not.
	body := `{"program":"x = doc <x><B/><A/></x>\ny = read $x//A\ninsert $x/B, <C/>\nz = read $x//C\n"}`
	resp, data := postJSON(t, ts.URL+"/v1/analyze", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var ar analyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatalf("bad JSON %q: %v", data, err)
	}
	if len(ar.Statements) != 4 {
		t.Fatalf("%d statements, want 4: %+v", len(ar.Statements), ar)
	}
	dep := func(i, j int) bool {
		for _, d := range ar.Dependences {
			if d.I == i && d.J == j {
				return true
			}
		}
		return false
	}
	if !dep(2, 3) {
		t.Fatalf("read //C must depend on the insert: %+v", ar.Dependences)
	}
	if dep(1, 2) {
		t.Fatalf("read //A must not depend on the insert: %+v", ar.Dependences)
	}
	if len(ar.Schedule) == 0 {
		t.Fatalf("empty schedule: %+v", ar)
	}
}

func TestAnalyzeEndpointRejections(t *testing.T) {
	_, ts := testServer(t, 1)
	for _, tc := range []struct {
		body, wantErr string
	}{
		{`{}`, "program"},
		{`{"program":"x = doc <a/>\nboom"}`, "program:"},
		{`{"program":"x = doc <a/>","semantics":"?"}`, "semantics"},
		// The fan-out is the pool's size, not the caller's choice.
		{`{"program":"x = doc <a/>","workers":2}`, "unknown field"},
	} {
		resp, data := postJSON(t, ts.URL+"/v1/analyze", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status = %d (%s), want 400", tc.body, resp.StatusCode, data)
		}
		if !strings.Contains(string(data), tc.wantErr) {
			t.Fatalf("body %q: error %q does not mention %q", tc.body, data, tc.wantErr)
		}
	}
}

// TestDetectUsesProcessCache: repeated plain detections hit the
// process-lifetime cache.
func TestDetectUsesProcessCache(t *testing.T) {
	s, ts := testServer(t, 1)
	for i := 0; i < 3; i++ {
		resp, data := postDetect(t, ts.URL, `{"read":"//C","insert":"/*/B","x":"<C/>"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, data)
		}
	}
	if hits, misses := s.cache.Counts(); hits != 2 || misses != 1 {
		t.Fatalf("cache counts = %d hits / %d misses, want 2 / 1", hits, misses)
	}
}
