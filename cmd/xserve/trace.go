package main

// Request tracing: every API request runs under a span tree rooted at
// the handler, propagated through the worker-pool queue, the detector
// cache, the search, and the store's WAL pipeline via the request
// context. Completed traces land in the flight recorder; slow, errored,
// degraded, and conflicting ones are always kept (per-category rings),
// so the forensics for a 409 or a tail-latency spike survive fast
// traffic. GET /v1/trace/{id} replays a held trace; /debug/requests
// lists what the recorder holds. Each recorded trace is also folded into
// /metrics: every span below the root feeds the timer named after it,
// so per-layer latency and the traces that sample it come from the same
// spans.

import (
	"net/http"
	"time"

	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/telemetry/span"
)

// statusWriter captures the status a handler wrote so the tracing
// middleware can classify the request after the fact.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// traced wraps a handler in one trace per request. It sits OUTSIDE the
// containment wrapper so a contained panic still finishes and records
// its trace (with the error flag the 500 earns it). An incoming W3C
// traceparent header continues the caller's trace ID; the reply always
// carries X-Trace-Id and a traceparent for downstream hops.
func (s *server) traced(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var tr *span.Trace
		if tid, _, ok := span.ParseTraceparent(r.Header.Get("traceparent")); ok {
			tr = span.Resume(name, tid)
		} else {
			tr = span.New(name)
		}
		root := tr.Root()
		root.Set("method", r.Method)
		root.Set("path", r.URL.Path)
		w.Header().Set("X-Trace-Id", tr.ID())
		w.Header().Set("traceparent", tr.Traceparent())
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			root.Set("status", status)
			switch {
			case status >= 500:
				tr.Flag("error")
			case status == http.StatusConflict:
				tr.Flag("conflict")
			}
			v := s.recorder.Record(tr)
			observeLayers(s.metrics, v.TraceID, v.Root)
		}()
		h(sw, r.WithContext(span.Context(r.Context(), root)))
	}
}

// observeLayers adds the duration of every closed span below parent to
// the timer named after that span ("queue.wait", "serve.docs",
// "store.admit", ...), with the trace as the timer's exemplar. The
// traced wrapper passes the request's root, which is skipped: it is the
// whole request, which clients time themselves, and its names ("detect",
// "batch") are also engine span names. Spans still open when the trace
// was recorded have no duration yet and are skipped too. Span names are
// literals in the code, so the set of timers is fixed.
func observeLayers(m *telemetry.Metrics, traceID string, parent span.SpanView) {
	for _, c := range parent.Children {
		if !c.Open {
			m.Timer(c.Name).ObserveTraced(time.Duration(c.DurationUs)*time.Microsecond, traceID)
		}
		observeLayers(m, traceID, c)
	}
}

// traceID is the request's trace ID, or "" outside the traced wrapper.
func traceID(r *http.Request) string {
	return span.FromContext(r.Context()).TraceID()
}

// flagDegraded marks the request's trace when a search came back
// incomplete (budget or deadline degradation) so the flight recorder
// always keeps it.
func flagDegraded(r *http.Request, complete bool) {
	if !complete {
		span.FromContext(r.Context()).Flag("degraded")
	}
}

// handleTraceGet serves GET /v1/trace/{id}: the full span tree of a
// trace the flight recorder still holds. Deliberately untraced — trace
// inspection must not churn the rings it reads.
func (s *server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	v, ok := s.recorder.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "not-found", "trace not held: "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, v)
}
