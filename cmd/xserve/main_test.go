package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func testServer(t *testing.T, pool int) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(pool, 50*time.Millisecond, 1<<20)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

func postDetect(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/detect", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

func TestDetectConflictAndNoConflict(t *testing.T) {
	_, ts := testServer(t, 2)

	resp, data := postDetect(t, ts.URL, `{"read":"//C","insert":"/*/B","x":"<C/>"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var v detectResponse
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("bad JSON %q: %v", data, err)
	}
	if !v.Conflict || v.Witness == "" || v.Method == "" || !v.Complete {
		t.Fatalf("conflicting insert: %+v", v)
	}
	if v.Semantics != "node" {
		t.Fatalf("default semantics = %q", v.Semantics)
	}

	resp, data = postDetect(t, ts.URL, `{"read":"//A","delete":"//B","semantics":"node","max_nodes":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var v2 detectResponse
	json.Unmarshal(data, &v2)
	// //A vs delete //B: deleting a B can drop A descendants — conflict
	// exists; just assert the response is well-formed and decisive.
	if v2.Method == "" {
		t.Fatalf("delete verdict: %+v", v2)
	}
}

func TestDetectWithTreeIsWitnessCheck(t *testing.T) {
	_, ts := testServer(t, 1)
	resp, data := postDetect(t, ts.URL,
		`{"read":"//C","insert":"/*/B","x":"<C/>","tree":"<r><B/></r>"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var v detectResponse
	json.Unmarshal(data, &v)
	if v.Method != "witness-check" || !v.Conflict {
		t.Fatalf("witness check: %+v", v)
	}
	// A tree on which the insert cannot fire does not witness.
	resp, data = postDetect(t, ts.URL,
		`{"read":"//C","insert":"/*/B","x":"<C/>","tree":"<r><Z/></r>"}`)
	json.Unmarshal(data, &v)
	if resp.StatusCode != http.StatusOK || v.Conflict {
		t.Fatalf("non-witness tree: %d %+v", resp.StatusCode, v)
	}
}

func TestDetectUnderSchema(t *testing.T) {
	_, ts := testServer(t, 1)
	// The update pattern cannot fire on any valid tree: static prune.
	resp, data := postDetect(t, ts.URL,
		`{"read":"//a","insert":"//nope","schema":"root r\nr: a?\na:"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var v detectResponse
	json.Unmarshal(data, &v)
	if v.Conflict || !strings.HasPrefix(v.Method, "schema") {
		t.Fatalf("schema verdict: %+v", v)
	}
}

func TestDetectBadRequests(t *testing.T) {
	_, ts := testServer(t, 1)
	for _, body := range []string{
		`{`,              // malformed JSON
		`{}`,             // no read
		`{"read":"//A"}`, // no update
		`{"read":"//A","insert":"//B","delete":"//C"}`, // both updates
		`{"read":"///","insert":"//B"}`,                // bad xpath
		`{"read":"//A","insert":"//B","semantics":"bogus"}`,
		`{"read":"//A","insert":"//B","unknown_field":1}`,
		`{"read":"//A[B]","insert":"//B","workers":2}`, // the parallel search is gone
	} {
		resp, data := postDetect(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status = %d (%s), want 400", body, resp.StatusCode, data)
		}
		var e errorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Fatalf("body %q: error response %q", body, data)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/detect")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}
}

// TestMetricsUnderConcurrentLoad is the acceptance scenario: concurrent
// POST /v1/detect load, then /metrics must expose detect-latency
// quantiles and the serve counters in Prometheus text format.
func TestMetricsUnderConcurrentLoad(t *testing.T) {
	// A long queue timeout: this test wants every request served (the
	// slow search bodies can hold the pool for a while under -race);
	// load shedding has its own test below.
	s := newServer(4, 10*time.Second, 1<<20)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	var wg sync.WaitGroup
	const n = 24
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := `{"read":"//C","insert":"/*/B","x":"<C/>"}`
			if i%2 == 1 {
				body = `{"read":"a[b][c]/d","delete":"z/w","max_nodes":4,"max_candidates":2000}`
			}
			resp, err := http.Post(ts.URL+"/v1/detect", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status = %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	io.Copy(&buf, resp.Body)
	out := buf.String()
	for _, want := range []string{
		"# TYPE xmlconflict_serve_detect_seconds summary",
		`xmlconflict_serve_detect_seconds{quantile="0.5"}`,
		`xmlconflict_serve_detect_seconds{quantile="0.9"}`,
		`xmlconflict_serve_detect_seconds{quantile="0.99"}`,
		"xmlconflict_serve_detect_seconds_count 24",
		"xmlconflict_serve_requests 24",
		"xmlconflict_detect_calls", // engine counters flow into the same registry
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in /metrics:\n%s", want, out)
		}
	}
}

func TestPoolSaturationRejectsWith503(t *testing.T) {
	s, ts := testServer(t, 1)
	// Occupy the single slot directly so the next request must queue and
	// time out (queue timeout is 50ms in testServer).
	s.pool <- struct{}{}
	defer func() { <-s.pool }()
	resp, data := postDetect(t, ts.URL, `{"read":"//C","insert":"/*/B"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if s.metrics.Counter("serve.rejected").Load() == 0 {
		t.Fatal("rejection not counted")
	}
}

func TestReadyzFlipsDuringDrain(t *testing.T) {
	s, ts := testServer(t, 1)
	resp, _ := http.Get(ts.URL + "/readyz")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ready status = %d", resp.StatusCode)
	}
	s.ready.Store(false)
	resp, _ = http.Get(ts.URL + "/readyz")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", resp.StatusCode)
	}
}
