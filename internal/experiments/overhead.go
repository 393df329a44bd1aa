package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"xmlconflict/internal/core"
	"xmlconflict/internal/generate"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/telemetry/span"
	"xmlconflict/internal/xpath"
)

// E18 — telemetry overhead. The observability layer's contract is that
// instrumented hot paths pay a single nil check per site and allocate
// nothing when no channel is attached; this experiment puts a number on
// that claim (and on the real cost of attaching each channel) for both
// decision-procedure shapes: the per-candidate NP-case search loop, where
// the counter and progress sites sit innermost, and the PTIME linear
// detector, which records one span event per read edge.
// bench_test.go's BenchmarkE18TelemetryOverhead is the testing.B anchor
// for the same comparison.
func E18(seed int64, reps int) Table {
	t := Table{
		ID:     "E18",
		Title:  "Telemetry overhead: channels disabled vs enabled",
		Header: []string{"workload", "telemetry", "ns/op", "allocs/op", "vs off"},
	}

	// NP-case workload: a branching read against a far-away delete, so
	// the bounded search grinds its whole candidate budget with the
	// instrumentation sites (progress steps, counters) in the inner loop.
	searchRead := ops.Read{P: xpath.MustParse("a[b][c]/d")}
	searchDel := ops.Delete{P: xpath.MustParse("z/w")}
	searchOpts := core.SearchOptions{MaxNodes: 6, MaxCandidates: 10_000}

	// PTIME workload: a linear pair through the automata-product
	// detectors, whose event sites are per-edge rather than per-candidate.
	rng := rand.New(rand.NewSource(seed))
	linRead, linUpd := generate.LinearPair(rng, 24)
	if linUpd.Output() == linUpd.Root() {
		// A delete pattern must not select the root.
		n := linUpd.AddChild(linUpd.Output(), pattern.Child, "a")
		linUpd.SetOutput(n)
	}

	// Modes apply per call, so the span mode opens a fresh trace for
	// every detection, as xserve does per request.
	type mode struct {
		name string
		with func(core.SearchOptions) core.SearchOptions
	}
	stats := telemetry.New()
	progress := telemetry.NewProgress(func(telemetry.Update) {}, time.Hour)
	modes := []mode{
		{"off", func(o core.SearchOptions) core.SearchOptions { return o }},
		{"stats", func(o core.SearchOptions) core.SearchOptions {
			return o.WithStats(stats)
		}},
		{"stats+span+progress", func(o core.SearchOptions) core.SearchOptions {
			return o.WithStats(stats).WithProgress(progress).
				WithContext(span.Context(context.Background(), span.New("E18").Root()))
		}},
	}

	workloads := []struct {
		name  string
		scale int // iteration multiplier: fast workloads need many calls per timing
		opts  core.SearchOptions
		run   func(core.SearchOptions)
	}{
		{"bounded search (NP case)", 1, searchOpts, func(o core.SearchOptions) {
			_, _ = core.Detect(searchRead, searchDel, ops.NodeSemantics, o)
		}},
		{"linear detect (PTIME)", 100, core.SearchOptions{}, func(o core.SearchOptions) {
			_, _ = core.Detect(ops.Read{P: linRead}, ops.Delete{P: linUpd}, ops.NodeSemantics, o)
		}},
	}

	for _, w := range workloads {
		var base time.Duration
		for _, m := range modes {
			call := func() { w.run(m.with(w.opts)) }
			call() // warm caches before timing
			d, allocs := timeAllocs(max(1, reps)*w.scale, call)
			ratio := "1.00x"
			if m.name == "off" {
				base = d
			} else if base > 0 {
				ratio = fmt.Sprintf("%.2fx", float64(d)/float64(base))
			}
			t.Rows = append(t.Rows, []string{w.name, m.name, fmt.Sprint(d.Nanoseconds()), fmt.Sprint(allocs), ratio})
		}
	}
	t.Metrics = counterMap(stats)
	t.Notes = append(t.Notes,
		"expected shape: \"off\" equals an uninstrumented build within noise and allocates",
		"nothing for instrumentation; \"stats\" adds atomic increments on every counter site;",
		"the span mode adds one trace per call plus its spans and linear.edge events")
	return t
}

// timeAllocs runs f reps times and returns the mean duration and the
// mean number of heap allocations per run.
func timeAllocs(reps int, f func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := timeIt(reps, f)
	runtime.ReadMemStats(&after)
	return d, (after.Mallocs - before.Mallocs) / uint64(max(1, reps))
}
