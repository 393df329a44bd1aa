package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xmlconflict/internal/faultinject"
)

// Chaos tests for the daemon: inject faults at the handler and engine
// boundaries and assert the blast radius stays one request (or one batch
// item) while the process keeps serving. Faults are process-global, so
// these tests never run in parallel with each other.

// TestChaosHandlerPanicContained: a panicking handler answers its own
// request with the 500 envelope; the daemon stays healthy and the very
// next request succeeds.
func TestChaosHandlerPanicContained(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Arm("serve.detect", faultinject.Fault{Kind: faultinject.KindPanic, Times: 1})

	s := newServer(2, time.Second, 1<<20)
	dumpTracesOnFailure(t, s)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)

	const req = `{"read":"//C","insert":"/*/B","x":"<C/>"}`
	resp, raw := postJSON(t, ts.URL+"/v1/detect", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked request status = %d, want 500 (body %s)", resp.StatusCode, raw)
	}
	var envelope struct {
		Error  string `json:"error"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(raw, &envelope); err != nil {
		t.Fatalf("500 body is not the JSON envelope: %v (%s)", err, raw)
	}
	if envelope.Reason != "panic" || envelope.Error == "" {
		t.Fatalf("envelope = %+v, want reason \"panic\" and a message", envelope)
	}
	if got := s.metrics.Counter("serve.panics").Load(); got != 1 {
		t.Fatalf("serve.panics = %d, want 1", got)
	}

	// The daemon is still alive and serving.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %v (status %d)", err, hresp.StatusCode)
	}
	hresp.Body.Close()
	resp, raw = postJSON(t, ts.URL+"/v1/detect", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panic status = %d, want 200 (body %s)", resp.StatusCode, raw)
	}
	if got := s.metrics.Gauge("serve.inflight").Load(); got != 0 {
		t.Fatalf("serve.inflight = %d after panic, want 0", got)
	}
	if len(s.pool) != 0 {
		t.Fatalf("pool holds %d leaked slots", len(s.pool))
	}
}

// TestChaosBatchItemPanicIsolated: an injected panic while deciding one
// batch pair yields a 200 whose results carry exactly one per-item error
// (reason "panic"); the other pairs answer normally.
func TestChaosBatchItemPanicIsolated(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Arm("core.batch.worker", faultinject.Fault{Kind: faultinject.KindPanic, Times: 1})

	s := newServer(2, time.Second, 1<<20)
	dumpTracesOnFailure(t, s)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)

	var pairs []string
	for i := 0; i < 3; i++ {
		pairs = append(pairs, fmt.Sprintf(`{"read":"/a[b]/c%d","insert":"/a","x":"<c%d/>"}`, i, i))
	}
	resp, raw := postJSON(t, ts.URL+"/v1/detect/batch", `{"pairs":[`+strings.Join(pairs, ",")+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200 (body %s)", resp.StatusCode, raw)
	}
	var br struct {
		Results []struct {
			Method string `json:"method"`
			Reason string `json:"reason"`
			Error  string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatalf("batch body: %v (%s)", err, raw)
	}
	if len(br.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(br.Results))
	}
	failed := 0
	for i, r := range br.Results {
		if r.Error != "" {
			failed++
			if r.Reason != "panic" {
				t.Fatalf("item %d reason = %q, want \"panic\"", i, r.Reason)
			}
			continue
		}
		if r.Method == "" {
			t.Fatalf("item %d has neither verdict nor error: %s", i, raw)
		}
	}
	if failed != 1 {
		t.Fatalf("failed items = %d, want exactly 1", failed)
	}
	if got := s.metrics.Gauge("serve.inflight").Load(); got != 0 {
		t.Fatalf("serve.inflight = %d after batch, want 0", got)
	}
}

// TestChaosDeadlineDegradesNotErrors: a search that exhausts its
// deadline_ms replies 200 with complete:false and reason "deadline" —
// degradation, not a 500.
func TestChaosDeadlineDegradesNotErrors(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	// Hold the detection long enough that the 5ms deadline lapses before
	// the search's first deadline poll.
	faultinject.Arm("core.detect", faultinject.Fault{Kind: faultinject.KindLatency, Delay: 30 * time.Millisecond})

	s := newServer(2, time.Second, 1<<20)
	dumpTracesOnFailure(t, s)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)

	// A branching read forces the NP-case bounded search.
	resp, raw := postJSON(t, ts.URL+"/v1/detect",
		`{"read":"/a[b]/c","insert":"/x","x":"<y/>","deadline_ms":5,"max_candidates":1000000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline request status = %d, want 200 (body %s)", resp.StatusCode, raw)
	}
	var dr struct {
		Complete bool   `json:"complete"`
		Reason   string `json:"reason"`
	}
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatalf("body: %v (%s)", err, raw)
	}
	if dr.Complete {
		t.Fatalf("verdict complete despite lapsed deadline: %s", raw)
	}
	if dr.Reason != "deadline" {
		t.Fatalf("reason = %q, want \"deadline\" (body %s)", dr.Reason, raw)
	}
}

// TestDeadlineStopsLinearDetection: deadline_ms bounds the linear
// detectors too. A 2 000-step linear read, which they decide in about a
// second, answers complete:false soon after a 20ms deadline instead of
// holding its pool slot to the end.
func TestDeadlineStopsLinearDetection(t *testing.T) {
	s := newServer(2, time.Second, 1<<20)
	dumpTracesOnFailure(t, s)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)

	read := "/" + strings.Repeat("a/", 1999) + "a"
	start := time.Now()
	resp, raw := postJSON(t, ts.URL+"/v1/detect",
		fmt.Sprintf(`{"read":%q,"insert":"/a","x":"<a/>","deadline_ms":20}`, read))
	el := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %s)", resp.StatusCode, raw)
	}
	var dr struct {
		Complete bool   `json:"complete"`
		Reason   string `json:"reason"`
		Method   string `json:"method"`
	}
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatalf("body: %v (%s)", err, raw)
	}
	if dr.Complete || dr.Reason != "deadline" || dr.Method != "linear" {
		t.Fatalf("verdict %s, want an incomplete linear verdict with reason \"deadline\"", raw)
	}
	if el > 500*time.Millisecond {
		t.Fatalf("answered after %v, past a 20ms deadline", el)
	}
}

// TestChaosMidBatchCancelFreesSlots: a client abandoning a batch
// mid-flight must leave no residue — the pool slot comes back, the
// inflight gauge drains to zero, and the cancellation is counted.
func TestChaosMidBatchCancelFreesSlots(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	// Each pair stalls 50ms so the cancel lands mid-batch.
	faultinject.Arm("core.batch.worker", faultinject.Fault{Kind: faultinject.KindLatency, Delay: 50 * time.Millisecond})

	s := newServer(2, time.Second, 1<<20)
	dumpTracesOnFailure(t, s)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)

	var pairs []string
	for i := 0; i < 6; i++ {
		pairs = append(pairs, fmt.Sprintf(`{"read":"/a[b]/c%d","insert":"/a","x":"<c%d/>"}`, i, i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/detect/batch",
		strings.NewReader(`{"pairs":[`+strings.Join(pairs, ",")+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	go func() {
		time.Sleep(60 * time.Millisecond)
		cancel()
	}()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t.Fatal("canceled batch unexpectedly completed")
	}

	// The handler notices asynchronously; poll for the residue to clear.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.metrics.Gauge("serve.inflight").Load() == 0 && len(s.pool) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot residue after cancel: inflight=%d pool=%d",
				s.metrics.Gauge("serve.inflight").Load(), len(s.pool))
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitCounter := time.Now().Add(5 * time.Second)
	for s.metrics.Counter("serve.canceled").Load() == 0 {
		if time.Now().After(waitCounter) {
			t.Fatal("serve.canceled never incremented")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The daemon remains fully serviceable afterwards.
	faultinject.Reset()
	resp, raw := postJSON(t, ts.URL+"/v1/detect", `{"read":"//C","insert":"/*/B","x":"<C/>"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after canceled batch = %d, want 200 (body %s)", resp.StatusCode, raw)
	}
}

// TestChaosDrainEnvelopeAndRetryAfter: the draining 503 uses the same
// JSON envelope as the API errors and tells probes when to come back.
func TestChaosDrainEnvelopeAndRetryAfter(t *testing.T) {
	s := newServer(2, time.Second, 1<<20)
	dumpTracesOnFailure(t, s)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)

	s.ready.Store(false)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 missing Retry-After")
	}
	var envelope struct {
		Error  string `json:"error"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(raw, &envelope); err != nil {
		t.Fatalf("draining body is not the JSON envelope: %v (%s)", err, raw)
	}
	if envelope.Reason != "draining" {
		t.Fatalf("reason = %q, want \"draining\"", envelope.Reason)
	}
}

// TestChaosErrorEnvelopeUniform: every non-2xx API response parses as
// the {"error", "reason"} envelope.
func TestChaosErrorEnvelopeUniform(t *testing.T) {
	s := newServer(2, time.Second, 1<<20)
	dumpTracesOnFailure(t, s)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)

	cases := []struct {
		name, method, path, body, reason string
		status                           int
	}{
		{"bad body", http.MethodPost, "/v1/detect", `{nope`, "bad-request", http.StatusBadRequest},
		{"bad pair", http.MethodPost, "/v1/detect", `{"read":""}`, "bad-request", http.StatusBadRequest},
		{"empty batch", http.MethodPost, "/v1/detect/batch", `{"pairs":[]}`, "bad-request", http.StatusBadRequest},
		{"wrong method", http.MethodGet, "/v1/detect", ``, "method-not-allowed", http.StatusMethodNotAllowed},
		{"no program", http.MethodPost, "/v1/analyze", `{}`, "bad-request", http.StatusBadRequest},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status = %d, want %d (body %s)", tc.name, resp.StatusCode, tc.status, raw)
		}
		var envelope struct {
			Error  string `json:"error"`
			Reason string `json:"reason"`
		}
		if err := json.Unmarshal(raw, &envelope); err != nil {
			t.Fatalf("%s: body is not the JSON envelope: %v (%s)", tc.name, err, raw)
		}
		if envelope.Reason != tc.reason || envelope.Error == "" {
			t.Fatalf("%s: envelope = %+v, want reason %q", tc.name, envelope, tc.reason)
		}
	}
}
