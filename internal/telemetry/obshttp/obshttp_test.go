package obshttp

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xmlconflict/internal/telemetry"
)

func testRegistry() *telemetry.Metrics {
	m := telemetry.New()
	m.Add("search.candidates", 42)
	m.Gauge("search.depth").Set(7)
	m.Timer("detect.time").Observe(3 * time.Millisecond)
	return m
}

func TestPrometheusExposition(t *testing.T) {
	srv := httptest.NewServer(Handler(Options{Metrics: testRegistry()}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"# TYPE xmlconflict_search_candidates counter",
		"xmlconflict_search_candidates 42",
		"# TYPE xmlconflict_search_depth gauge",
		"xmlconflict_search_depth 7",
		"# TYPE xmlconflict_detect_time_seconds summary",
		`xmlconflict_detect_time_seconds{quantile="0.99"}`,
		"xmlconflict_detect_time_seconds_count 1",
		"xmlconflict_goroutines",
		"xmlconflict_uptime_seconds",
		"xmlconflict_heap_alloc_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, out)
		}
	}
}

// TestOpenMetricsNegotiation covers the content-negotiated exemplar
// contract: a scraper that accepts application/openmetrics-text gets
// the OpenMetrics exposition — counter samples suffixed _total,
// exemplars as `# {trace_id="..."} value` on the summary _count lines,
// `# EOF` terminator — while a plain scraper keeps text-format 0.0.4
// exactly as before, with exemplars demoted to # EXEMPLAR comments.
func TestOpenMetricsNegotiation(t *testing.T) {
	m := testRegistry()
	m.Timer("detect.time").ObserveTraced(8*time.Millisecond, "feedbeef")
	srv := httptest.NewServer(Handler(Options{Metrics: m}))
	defer srv.Close()

	fetch := func(accept string) (string, string) {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	// Prometheus's real Accept header lists openmetrics-text first.
	om, ct := fetch("application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5")
	if !strings.Contains(ct, "application/openmetrics-text") {
		t.Fatalf("negotiated content type = %q", ct)
	}
	for _, want := range []string{
		"xmlconflict_search_candidates_total 42",
		`xmlconflict_detect_time_seconds_count 2 # {trace_id="feedbeef"} 0.008`,
		"# EOF\n",
	} {
		if !strings.Contains(om, want) {
			t.Fatalf("OpenMetrics exposition missing %q:\n%s", want, om)
		}
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Fatalf("OpenMetrics exposition does not end with # EOF:\n...%s", om[len(om)-80:])
	}
	if strings.Contains(om, "# EXEMPLAR") {
		t.Fatal("OpenMetrics exposition still carries comment-form exemplars")
	}

	// No Accept header: plain text 0.0.4, bare counter names, exemplars
	// only as comments, no EOF marker.
	plain, ct := fetch("")
	if !strings.Contains(ct, "text/plain") {
		t.Fatalf("default content type = %q", ct)
	}
	for _, want := range []string{
		"xmlconflict_search_candidates 42",
		`# EXEMPLAR xmlconflict_detect_time_seconds trace_id="feedbeef"`,
	} {
		if !strings.Contains(plain, want) {
			t.Fatalf("plain exposition missing %q:\n%s", want, plain)
		}
	}
	for _, reject := range []string{"_total", "# EOF", `# {trace_id=`} {
		if strings.Contains(plain, reject) {
			t.Fatalf("plain exposition leaks OpenMetrics syntax %q:\n%s", reject, plain)
		}
	}

	// An Accept that does not mention OpenMetrics stays on plain text.
	if _, ct := fetch("text/plain;version=0.0.4"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("text/plain Accept negotiated %q", ct)
	}
}

// TestHealthzIdentity covers the /healthz upgrade: with an Identity
// callback the probe answers JSON carrying the server's build/config
// identity; without one it stays the plain "ok" liveness answer.
func TestHealthzIdentity(t *testing.T) {
	srv := httptest.NewServer(Handler(Options{
		Identity: func() map[string]string {
			return map[string]string{"service": "xserve", "store_fsync": "group"}
		},
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{`"status":"ok"`, `"store_fsync":"group"`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("healthz missing %q:\n%s", want, body)
		}
	}

	bare := httptest.NewServer(Handler(Options{}))
	defer bare.Close()
	resp2, err := http.Get(bare.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if string(body2) != "ok\n" {
		t.Fatalf("identity-less healthz = %q, want plain ok", body2)
	}
}

func TestProbesAndDebugSurface(t *testing.T) {
	ready := true
	srv := httptest.NewServer(Handler(Options{
		Metrics: testRegistry(),
		Ready:   func() bool { return ready },
	}))
	defer srv.Close()

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if get("/healthz") != http.StatusOK {
		t.Fatal("healthz not ok")
	}
	if get("/readyz") != http.StatusOK {
		t.Fatal("readyz not ok while ready")
	}
	ready = false
	if get("/readyz") != http.StatusServiceUnavailable {
		t.Fatal("readyz must report 503 while draining")
	}
	if get("/debug/pprof/") != http.StatusOK {
		t.Fatal("pprof index not mounted")
	}
	if get("/debug/vars") != http.StatusOK {
		t.Fatal("expvar not mounted")
	}
	// A short CPU profile must stream successfully (the acceptance
	// criterion "usable CPU profile"): pprof writes a binary protobuf.
	resp, err := http.Get(srv.URL + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("cpu profile: status %d, %d bytes", resp.StatusCode, len(body))
	}
}

func TestNilRegistryServesProcessSeries(t *testing.T) {
	srv := httptest.NewServer(Handler(Options{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "xmlconflict_goroutines") {
		t.Fatalf("nil registry exposition missing process series:\n%s", body)
	}
}

func TestServeBackground(t *testing.T) {
	m := testRegistry()
	srv, addr, err := Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "xmlconflict_search_candidates 42") {
		t.Fatalf("background server exposition:\n%s", body)
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"search.candidates": "ns_search_candidates",
		"a-b/c d":           "ns_a_b_c_d",
		"ok_name:sub":       "ns_ok_name:sub",
		"UPPER9":            "ns_UPPER9",
	} {
		if got := promName("ns", in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestLabeledSeriesExposition: per-shard and per-tenant series render
// as Prometheus label blocks, with exactly one TYPE line per family
// even though the labeled series sort after unrelated base names.
func TestLabeledSeriesExposition(t *testing.T) {
	m := telemetry.New()
	m.Labeled("shard", "0").Add("store.appends", 2)
	m.Labeled("shard", "1").Add("store.appends", 5)
	m.Add("store.appendsx", 1) // sorts between the base name and '|'-keyed series
	m.Labeled("tenant", "acme").Gauge("tenant.inflight").Set(3)
	m.Labeled("shard", "1").Timer("store.fsync.time").Observe(2 * time.Millisecond)

	srv := httptest.NewServer(Handler(Options{Metrics: m}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		`xmlconflict_store_appends{shard="0"} 2`,
		`xmlconflict_store_appends{shard="1"} 5`,
		`xmlconflict_tenant_inflight{tenant="acme"} 3`,
		`xmlconflict_store_fsync_time_seconds{shard="1",quantile="0.5"}`,
		`xmlconflict_store_fsync_time_seconds_count{shard="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE xmlconflict_store_appends counter"); n != 1 {
		t.Fatalf("TYPE xmlconflict_store_appends appears %d times, want exactly 1:\n%s", n, out)
	}
}
