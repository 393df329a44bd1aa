package xmlconflict

import (
	"context"
	"io"
	"time"

	"xmlconflict/internal/core"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/telemetry/obshttp"
	"xmlconflict/internal/telemetry/span"
)

// This file is the observability facade of the detection engine: Stats
// counters, live Progress reports, and span traces that record timing and
// every decision. All instrumentation is opt-in through SearchOptions (see
// WithStats, WithProgress and WithContext on SearchOptions); with nothing
// attached the engine pays a single nil check per site.
//
//	st := xmlconflict.NewStats()
//	ctx, tr := xmlconflict.StartTrace(context.Background(), "detect")
//	v, err := xmlconflict.Detect(r, u, sem,
//		xmlconflict.SearchOptions{}.WithStats(st).WithContext(ctx))
//	tr.Finish()
//	tr.View().WriteTree(os.Stderr)
//	fmt.Print(st.Snapshot())

// Stats is a concurrency-safe registry of named counters, gauges, and
// timers that the decision procedures populate: candidates examined,
// per-edge cut decisions, NFA product sizes, pattern-minimization
// savings, compiled-pattern cache traffic, witness-shrinking steps, and
// more. Attach one with SearchOptions.WithStats and read it afterwards
// with Snapshot. A single Stats may be shared across many calls (and
// goroutines) to aggregate.
type Stats = telemetry.Metrics

// NewStats returns an empty metrics registry.
func NewStats() *Stats { return telemetry.New() }

// StatsSnapshot is a point-in-time copy of a Stats registry. Its String
// method renders a sorted human-readable listing.
type StatsSnapshot = telemetry.Snapshot

// Progress delivers throttled progress reports from the candidate
// enumerations of the bounded witness searches: candidates done versus
// the cap, rate, and ETA. Attach one with SearchOptions.WithProgress.
type Progress = telemetry.Progress

// ProgressUpdate is one progress report.
type ProgressUpdate = telemetry.Update

// NewProgress returns a Progress invoking fn at most once per interval
// (0 = 200ms), plus once at the end of each phase.
func NewProgress(fn func(ProgressUpdate), interval time.Duration) *Progress {
	return telemetry.NewProgress(fn, interval)
}

// NewProgressWriter returns a Progress rendering reports as single text
// lines to w, e.g. "search: 15000/150000 (10.0%) 48120/s eta 2.8s".
func NewProgressWriter(w io.Writer, interval time.Duration) *Progress {
	return telemetry.NewProgressWriter(w, interval)
}

// ServeObservability starts the live observability surface on addr
// (":0" picks a free port) in a background goroutine and returns a
// closer plus the bound address. The surface serves:
//
//	/metrics        Prometheus text exposition of st (nil st: process-
//	                level series only), timers with p50/p90/p99
//	/debug/vars     expvar
//	/debug/pprof/*  live CPU/heap/trace profiling
//	/healthz        liveness, /readyz readiness
//
// This is what the -listen flag of every CLI mounts, so a long detection
// grind can be scraped and profiled while it runs.
func ServeObservability(addr string, st *Stats) (io.Closer, string, error) {
	srv, bound, err := obshttp.Serve(addr, st)
	if err != nil {
		return nil, "", err
	}
	return srv, bound, nil
}

// SpanTrace is one request-scoped span tree: the engine's layers attach
// child spans to whatever trace rides the SearchOptions context. The
// detect span records the method choice, operand sizes and verdict, with
// one linear.edge event per read edge the linear detectors decide; the
// search span its bounds and budget spend; the shrink span the witness
// reduction; and around them cache disposition, batch fan-out, and the
// store's admission and WAL pipeline. Create one with StartTrace, thread
// its context via SearchOptions.Ctx (or store CreateCtx / SubmitCtx),
// Finish it, and render or serialize the View.
type SpanTrace = span.Trace

// SpanView is the immutable snapshot of a finished (or in-flight)
// trace, JSON-serializable and renderable as an indented tree with
// WriteTree.
type SpanView = span.TraceView

// StartTrace opens a new span trace and returns it with a context
// carrying its root span, ready to pass through SearchOptions.Ctx.
// Layers that see no span in their context pay one pointer check and
// allocate nothing.
func StartTrace(ctx context.Context, name string) (context.Context, *SpanTrace) {
	tr := span.New(name)
	return span.Context(ctx, tr.Root()), tr
}

// ShrinkWitnessObserved is ShrinkWitness reporting the minimization's
// work (nodes marked, reparenting steps, size before and after) to the
// Stats of opts and as a shrink span under the span in opts.Ctx.
func ShrinkWitnessObserved(w *Tree, r Read, u Update, opts SearchOptions) (*Tree, error) {
	return core.ShrinkWitnessObserved(w, r, u, opts)
}
