// Package obshttp mounts the engine's live observability surface on any
// *http.ServeMux:
//
//	/metrics        Prometheus text exposition of a telemetry registry
//	                (counters, gauges; timers as summaries with
//	                p50/p90/p99 quantiles) plus process basics
//	/debug/vars     expvar JSON (everything published via Metrics.Publish)
//	/debug/pprof/*  the standard pprof handlers (CPU profile, heap, trace)
//	/healthz        liveness probe (always 200 while the process serves)
//	/readyz         readiness probe (503 until/unless Options.Ready says so)
//
// The same surface backs the long-running xserve daemon and the -listen
// flag of the one-shot CLIs, so a grinding xbench run or a bounded
// witness search can be scraped and profiled live instead of observed
// only through its exit dump.
package obshttp

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"time"

	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/telemetry/span"
)

// start anchors the process uptime reported on /metrics.
var start = time.Now()

// Options configures the mounted surface.
type Options struct {
	// Metrics is the registry served by /metrics. Nil serves only the
	// process-level series (uptime, goroutines, heap).
	Metrics *telemetry.Metrics
	// Ready gates /readyz: nil means always ready. Flip it to false
	// during drain so load balancers stop routing before shutdown.
	Ready func() bool
	// Identity, when non-nil, supplies the server's build/config
	// identity (fsync policy, worker count, cache size, ...). /healthz
	// then answers JSON {"status":"ok","identity":{...}} instead of the
	// plain "ok", so a load harness's report can record exactly which
	// configuration produced its numbers.
	Identity func() map[string]string
	// RetryAfter, when non-nil, supplies the Retry-After header value
	// (whole seconds) sent with the draining 503, telling probes and
	// balancers when to look again.
	RetryAfter func() string
	// Namespace prefixes every exported metric name; empty selects
	// "xmlconflict".
	Namespace string
	// Recorder, when non-nil, lists the flight recorder's holdings at
	// /debug/requests (JSON). One trace is read where the recorder's
	// owner serves it (xserve: GET /v1/trace/{id}).
	Recorder *span.FlightRecorder
}

// Mount registers the observability handlers on mux.
func Mount(mux *http.ServeMux, opts Options) {
	ns := opts.Namespace
	if ns == "" {
		ns = "xmlconflict"
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Content negotiation: a scraper that accepts the OpenMetrics
		// exposition gets real exemplars ({trace_id="..."} on the sample
		// lines); everyone else gets text-format v0.0.4, where exemplars
		// survive only as # EXEMPLAR comments.
		if negotiateOpenMetrics(r.Header.Get("Accept")) {
			w.Header().Set("Content-Type", openMetricsContentType)
			WriteOpenMetrics(w, ns, opts.Metrics.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, ns, opts.Metrics.Snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	if opts.Recorder != nil {
		rec := opts.Recorder
		mux.HandleFunc("GET /debug/requests", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(rec.List())
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if opts.Identity != nil {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(struct {
				Status   string            `json:"status"`
				Identity map[string]string `json:"identity"`
			}{Status: "ok", Identity: opts.Identity()})
			return
		}
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if opts.Ready != nil && !opts.Ready() {
			// The drain 503 mirrors the API's error envelope so every
			// machine-read failure off this server parses the same way.
			if opts.RetryAfter != nil {
				w.Header().Set("Retry-After", opts.RetryAfter())
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":"draining","reason":"draining"}`+"\n")
			return
		}
		io.WriteString(w, "ready\n")
	})
}

// Handler returns a fresh mux with the surface mounted.
func Handler(opts Options) http.Handler {
	mux := http.NewServeMux()
	Mount(mux, opts)
	return mux
}

// Serve starts the surface on addr (host:port; ":0" picks a free port)
// in a background goroutine and returns the server plus the bound
// address. This is the -listen implementation shared by the CLIs: start
// it before the real work, profile the work live, and Close the server
// on the way out (or just let process exit take it down).
func Serve(addr string, m *telemetry.Metrics) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("obshttp: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(Options{Metrics: m})}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// openMetricsContentType is the negotiated OpenMetrics exposition type.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// negotiateOpenMetrics reports whether the Accept header asks for the
// OpenMetrics exposition. Prometheus sends the full media type with
// version parameters; a plain substring match covers every client that
// means it without a q-value parser.
func negotiateOpenMetrics(accept string) bool {
	return strings.Contains(accept, "application/openmetrics-text")
}

// WritePrometheus renders a registry snapshot in the Prometheus text
// exposition format (version 0.0.4). Counters and gauges map directly;
// timers become summaries in seconds (<name>_seconds{quantile="..."}).
// Process-level series (<ns>_uptime_seconds, <ns>_goroutines,
// <ns>_heap_alloc_bytes) are always appended. Output order is
// deterministic. Exemplars appear only as # EXEMPLAR comments (scrapers
// of this format drop them); WriteOpenMetrics carries them as real
// exemplars.
func WritePrometheus(w io.Writer, ns string, s telemetry.Snapshot) {
	writeExposition(w, ns, s, false)
}

// WriteOpenMetrics renders the snapshot in the OpenMetrics text
// exposition (version 1.0.0): counter samples take the mandatory
// _total suffix, the output terminates with # EOF, and the epoch-max
// trace exemplars recorded via ObserveTraced ride the summary _count
// sample as `# {trace_id="..."} value` — the syntax Prometheus stores
// and surfaces next to the series, where the # EXEMPLAR comment of the
// plain-text path is silently dropped.
func WriteOpenMetrics(w io.Writer, ns string, s telemetry.Snapshot) {
	writeExposition(w, ns, s, true)
}

func writeExposition(w io.Writer, ns string, s telemetry.Snapshot, om bool) {
	counterSuffix := ""
	if om {
		// OpenMetrics requires counter sample names to end in _total.
		counterSuffix = "_total"
	}
	// Labeled registry views record series under "name|k=v,..." keys;
	// the family groups series sorted by base name so each # TYPE line
	// is emitted exactly once per family, with every labeled sample
	// under it (OpenMetrics forbids interleaved metric families).
	lastType := ""
	typeLine := func(pn, kind string) {
		if pn != lastType {
			fmt.Fprintf(w, "# TYPE %s %s\n", pn, kind)
			lastType = pn
		}
	}
	for _, name := range sortedSeries(s.Counters) {
		pn, lb := promSeries(ns, name)
		typeLine(pn, "counter")
		fmt.Fprintf(w, "%s%s%s %d\n", pn, counterSuffix, lb, s.Counters[name])
	}
	for _, name := range sortedSeries(s.Gauges) {
		pn, lb := promSeries(ns, name)
		typeLine(pn, "gauge")
		fmt.Fprintf(w, "%s%s %d\n", pn, lb, s.Gauges[name])
	}

	for _, name := range sortedSeries(s.Timers) {
		t := s.Timers[name]
		pn, lb := promSeries(ns, name)
		pn += "_seconds"
		typeLine(pn, "summary")
		fmt.Fprintf(w, "%s%s %g\n", pn, withQuantile(lb, "0.5"), t.P50.Seconds())
		fmt.Fprintf(w, "%s%s %g\n", pn, withQuantile(lb, "0.9"), t.P90.Seconds())
		fmt.Fprintf(w, "%s%s %g\n", pn, withQuantile(lb, "0.99"), t.P99.Seconds())
		fmt.Fprintf(w, "%s_sum%s %g\n", pn, lb, t.Total.Seconds())
		switch {
		case om && t.MaxTraceID != "":
			fmt.Fprintf(w, "%s_count%s %d # {trace_id=%q} %g\n", pn, lb, t.Count, t.MaxTraceID, t.Exemplar.Seconds())
		default:
			fmt.Fprintf(w, "%s_count%s %d\n", pn, lb, t.Count)
			if t.MaxTraceID != "" {
				// Exemplar as a comment: links the epoch-max observation to
				// a flight-recorder trace without leaving text-format 0.0.4.
				fmt.Fprintf(w, "# EXEMPLAR %s%s trace_id=%q\n", pn, lb, t.MaxTraceID)
			}
		}
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# TYPE %s_uptime_seconds gauge\n%s_uptime_seconds %g\n",
		ns, ns, time.Since(start).Seconds())
	fmt.Fprintf(w, "# TYPE %s_goroutines gauge\n%s_goroutines %d\n",
		ns, ns, runtime.NumGoroutine())
	fmt.Fprintf(w, "# TYPE %s_heap_alloc_bytes gauge\n%s_heap_alloc_bytes %d\n",
		ns, ns, ms.HeapAlloc)
	if om {
		fmt.Fprint(w, "# EOF\n")
	}
}

// sortedSeries orders series keys by (base name, label suffix) so every
// labeled sample of a family is adjacent to its unlabeled sibling — a
// plain string sort would let "store.appendsx" land between
// "store.appends" and "store.appends|shard=0" and split the family.
func sortedSeries[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		bi, _ := telemetry.SplitLabels(keys[i])
		bj, _ := telemetry.SplitLabels(keys[j])
		if bi != bj {
			return bi < bj
		}
		return keys[i] < keys[j]
	})
	return keys
}

// promSeries splits a registry series key into its Prometheus metric
// name and rendered label block: "store.appends|shard=0" becomes
// ("<ns>_store_appends", `{shard="0"}`); an unlabeled key returns an
// empty block.
func promSeries(ns, name string) (pn, labels string) {
	base, pairs := telemetry.SplitLabels(name)
	if len(pairs) == 0 {
		return promName(ns, base), ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promLabelName(kv[0]))
		fmt.Fprintf(&b, "=%q", kv[1])
	}
	b.WriteByte('}')
	return promName(ns, base), b.String()
}

// withQuantile merges the summary quantile label into an existing label
// block (or opens a fresh one).
func withQuantile(labels, q string) string {
	if labels == "" {
		return `{quantile="` + q + `"}`
	}
	return labels[:len(labels)-1] + `,quantile="` + q + `"}`
}

// promLabelName sanitizes a label key to Prometheus-legal form.
func promLabelName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_',
			c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promName converts a registry name like "search.candidates" into a
// Prometheus-legal metric name with the namespace prefix:
// "<ns>_search_candidates".
func promName(ns, name string) string {
	var b strings.Builder
	b.Grow(len(ns) + 1 + len(name))
	b.WriteString(ns)
	b.WriteByte('_')
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
