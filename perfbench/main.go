// Command perfbench is the repository benchmark. It links the module's
// packages and drives them in-process the way cmd/xserve's handlers do
// after JSON decoding, from two closed-loop clients replaying operation
// streams generated from --seed, and prints the metrics named in
// BENCHMARK.json. README.md in this directory defines the workloads and
// maps every metric to its layer.
//
//	perfbench --workload detect-mix|docs-large|docs-small --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of one untraced
// timed phase; with --trace 1 it runs an untraced and then a traced
// phase, each on a fresh set-up, and reports the per-layer metrics. The
// last line of standard output is the result; the line before it is a
// report carrying the run's identity, inputs, counts and details. The
// exit status is 1 when a correctness check fails, 2 on a usage or
// set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"xmlconflict/internal/core"
	"xmlconflict/internal/telemetry/span"
)

// buildDir holds what a run leaves behind (store directories while it
// runs, trace files after it); the wrapper script builds into it too.
const buildDir = ".bench_build"

const (
	// A --trace 0 run times at least setupMinReps fresh set-ups, and
	// more until they add up to setupMinTime (at most setupMaxReps), so
	// a cheap set-up's median rests on as much time as a dear one's.
	// setup_s is their median; the last one serves the timed phase.
	setupMinReps = 7
	setupMaxReps = 64
	setupMinTime = time.Second
	// traceOpCap bounds the operations of each phase of a --trace 1 run,
	// so the traces held in memory stay small on the fast workloads.
	traceOpCap = 12_000
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the --trace 0 metrics with their units. Every workload
// reports every one; README.md says what each means per workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"heap_mb", "MiB"},
	{"primary_p50_ms", "ms"},
	{"primary_tail_ms", "ms"},
	{"secondary_p50_ms", "ms"},
}

// perLayer lists the --trace 1 metrics with their units. A layer a
// workload does not exercise reports 0 there.
var perLayer = []struct{ name, unit string }{
	{"xpath.parse_p50_us", "us"},
	{"core.hit_p50_us", "us"},
	{"core.miss_p50_ms", "ms"},
	{"core.miss_p99_ms", "ms"},
	{"core.leader_wait_p50_ms", "ms"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.incomplete_ratio", "ratio"},
	{"core.recompute_ratio", "ratio"},
	{"core.candidates_per_miss", "count"},
	{"core.search_p50_ms", "ms"},
	{"core.search_p99_ms", "ms"},
	{"program.analyze_p50_ms", "ms"},
	{"program.pairs_per_analyze", "count"},
	{"store.admit_p50_ms", "ms"},
	{"store.admit_p90_ms", "ms"},
	{"store.admit_checked", "count"},
	{"store.admit_accept_ratio", "ratio"},
	{"store.apply_p50_ms", "ms"},
	{"store.wal_append_p50_us", "us"},
	{"store.wal_bytes_per_commit", "bytes"},
	{"store.op_self_p50_ms", "ms"},
	{"store.op_self_p99_ms", "ms"},
	{"store.snapshots", "count"},
	{"store.read_self_p50_ms", "ms"},
	{"store.get_p50_ms", "ms"},
	{"store.create_p50_ms", "ms"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_pause_us_per_op", "us"},
	{"trace.overhead_pct", "%"},
}

// outcome is what one workload run hands back to main.
type outcome struct {
	problems          []string
	attempted, failed int64
	values            map[string]float64
	report            map[string]any
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "detect-mix, docs-large or docs-small")
	seed := fs.Int64("seed", 1, "workload seed: the same seed replays the same inputs")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(work)

	p := phase{seconds: time.Duration(*seconds) * time.Second}
	traceDir := "" // empty: an untraced run
	if *trace == 1 {
		traceDir = filepath.Join(buildDir, "traces")
	}
	var out *outcome
	switch *workload {
	case "detect-mix":
		out, err = benchDetect(*seed, p, traceDir)
	case "docs-large":
		out, err = benchDocs(genDocs(*seed, docsLarge), work, p, traceDir)
	case "docs-small":
		out, err = benchDocs(genDocs(*seed, docsSmall), work, p, traceDir)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want detect-mix, docs-large or docs-small)\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	list := endToEnd
	if *trace == 1 {
		list = perLayer
	}
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, m := range list {
		res.Metrics[m.name] = metric{Value: out.values[m.name], Unit: m.unit}
	}
	out.report["identity"] = identity(*workload, *seed, *seconds, *trace)
	out.report["problems"] = out.problems
	if err := printJSON(map[string]any{"report": out.report}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := printJSON(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: correctness:", p)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// identity stamps a result with everything that makes two results
// comparable: toolchain, host parallelism and the configuration the
// program ran in.
func identity(workload string, seed int64, seconds, trace int) map[string]any {
	so := storeOptions(nil)
	return map[string]any{
		"workload":              workload,
		"seed":                  seed,
		"seconds":               seconds,
		"trace":                 trace,
		"go":                    runtime.Version(),
		"goos_goarch":           runtime.GOOS + "/" + runtime.GOARCH,
		"gomaxprocs":            runtime.GOMAXPROCS(0),
		"nproc":                 runtime.NumCPU(),
		"clients":               clients,
		"loop":                  "closed",
		"store_shards":          so.Shards,
		"store_fsync":           so.Store.Fsync.String(),
		"store_snapshot_every":  so.Store.SnapshotEvery,
		"store_history_window":  so.Store.HistoryWindow,
		"cache_cap":             core.DefaultDetectorCacheSize,
		"detect_max_nodes":      detectMaxNodes,
		"detect_max_candidates": detectMaxCand,
		"setup_min_reps":        setupMinReps,
		"setup_max_reps":        setupMaxReps,
		"setup_min_s":           setupMinTime.Seconds(),
		"trace_op_cap":          traceOpCap,
	}
}

// timedSetups runs setup as often as the set-up bounds above ask and
// returns the last state and every set-up time in seconds; each earlier
// state is discarded first.
func timedSetups[S any](setup func(k int) (S, error), discard func(S)) (S, []float64, error) {
	var s S
	var secs []float64
	var total time.Duration
	for k := 0; k < setupMaxReps && (k < setupMinReps || total < setupMinTime); k++ {
		if k > 0 {
			discard(s)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		s, err = setup(k)
		if err != nil {
			return s, nil, err
		}
		d := time.Since(t0)
		total += d
		secs = append(secs, d.Seconds())
	}
	return s, secs, nil
}

// endToEndValues computes the gated metrics of an untraced phase from
// its set-up times, run record, heap, and latency samples; tail is the
// primary class's tail quantile.
func endToEndValues(setups []float64, run phaseRun, heap float64, primary []time.Duration, tail float64, secondary []time.Duration) map[string]float64 {
	return map[string]float64{
		"setup_s":          median(setups),
		"ops_per_s":        run.opsPerSec(),
		"heap_mb":          heap,
		"primary_p50_ms":   quantile(primary, 0.5) / ms,
		"primary_tail_ms":  quantile(primary, tail) / ms,
		"secondary_p50_ms": quantile(secondary, 0.5) / ms,
	}
}

func benchDetect(seed int64, p phase, traceDir string) (*outcome, error) {
	traced := traceDir != ""
	in := genDetect(seed, detectStreamBlocks)
	report := map[string]any{"inputs": map[string]any{
		"population": len(in.pairs), "pairs_by_class": in.classSizes(), "cache_cap": core.DefaultDetectorCacheSize, "programs": len(in.programs),
		"warm_branching_pairs": warmBranching, "block_shape": blockShape, "analyses_per_block": analyzePerBlock,
	}}
	if !traced {
		base := liveHeapMiB()
		type state struct {
			s    *detectServer
			warm map[int32]bool
		}
		st, setups, err := timedSetups(func(int) (state, error) {
			s, warm, err := setupDetect(in)
			return state{s, warm}, err
		}, func(state) {})
		if err != nil {
			return nil, err
		}
		ph := runDetectPhase(in, st.s, st.warm, p)
		heap := liveHeapMiB() - base
		runtime.KeepAlive(st.s)
		asks := merge(ph.clients, func(c *detectClient) []time.Duration { return c.askLat })
		analyses := merge(ph.clients, func(c *detectClient) []time.Duration { return c.analyzeLat })
		conflicts := merge(ph.clients, func(c *detectClient) []time.Duration { return c.conflictLat })
		report["setup_s"] = setups
		report["samples"] = map[string]int{"asks": len(asks), "analyses": len(analyses), "conflict_verdicts": len(conflicts)}
		report["tails"] = map[string]string{"primary": "p99"}
		report["metrics"] = map[string]metric{
			"detect_p50_us":   {quantile(asks, 0.5) / us, "us"},
			"detect_p99_us":   {quantile(asks, 0.99) / us, "us"},
			"analyze_p50_ms":  {quantile(analyses, 0.5) / ms, "ms"},
			"analyze_p90_ms":  {quantile(analyses, 0.9) / ms, "ms"},
			"conflict_p50_ms": {quantile(conflicts, 0.5) / ms, "ms"},
		}
		report["distribution_ms"] = map[string]map[string]float64{"ask": distribution(asks), "analyze": distribution(analyses)}
		report["cache"] = map[string]any{"hits": ph.hits, "misses": ph.misses, "hit_ratio": ratio(ph.hits, ph.hits+ph.misses), "warm_pairs": len(st.warm)}
		return untracedOutcome(ph.run, ph.check(seed), report,
			endToEndValues(setups, ph.run, heap, asks, 0.99, analyses)), nil
	}

	p.opCap = traceOpCap
	s, warm, err := setupDetect(in)
	if err != nil {
		return nil, err
	}
	plain := runDetectPhase(in, s, warm, p)
	problems := plain.check(seed)
	if s, warm, err = setupDetect(in); err != nil {
		return nil, err
	}
	p.traced = true
	tph := runDetectPhase(in, s, warm, p)
	problems = append(problems, tph.check(seed)...)
	values, traces := tph.layers()
	return tracedOutcome("detect-mix", traceDir, report, values, traces, problems, plain.run, tph.run)
}

func benchDocs(in *docsInputs, work string, p phase, traceDir string) (*outcome, error) {
	traced := traceDir != ""
	report := map[string]any{"inputs": map[string]any{
		"documents": len(in.names), "document_bytes": in.bytes(), "document_nodes": in.nodeCount(),
		"sections": in.shape.sections, "slots_per_section": in.shape.slots, "hot_slots": in.shape.hotSlots,
		"lifecycle_share": lifecycleShare(in.shape), "stream_ops_per_client": in.shape.streamOps, "base_lag": "1-4",
	}}
	if !traced {
		type state struct {
			s    *docsServer
			logs map[string]*docLog
		}
		base := liveHeapMiB()
		st, setups, err := timedSetups(func(k int) (state, error) {
			dir, err := freshDir(work, fmt.Sprintf("setup-%d", k))
			if err != nil {
				return state{}, err
			}
			logs := newDocLogs(in)
			s, err := setupDocs(in, dir, logs, nil)
			return state{s, logs}, err
		}, func(st state) {
			st.s.rt.Close()
			os.RemoveAll(st.s.dir)
		})
		if err != nil {
			return nil, err
		}
		ph := runDocsPhase(in, st.s, st.logs, p)
		heap := liveHeapMiB() - base
		updates := merge(ph.clients, func(c *docsClient) []time.Duration { return c.updateLat })
		reads := merge(ph.clients, func(c *docsClient) []time.Duration { return c.readLat })
		conflicts := merge(ph.clients, func(c *docsClient) []time.Duration { return c.conflictLat })
		tail := in.shape.tailPercent / 100
		tailName := fmt.Sprintf("p%g", in.shape.tailPercent)
		report["setup_s"] = setups
		report["samples"] = map[string]int{"updates": len(updates), "reads": len(reads), "conflicts": len(conflicts), "stale_base": len(ph.staleOps())}
		report["tails"] = map[string]string{"primary": tailName}
		report["conflict_share_of_stale"] = ph.conflictShare()
		report["metrics"] = map[string]metric{
			"update_p50_ms":              {quantile(updates, 0.5) / ms, "ms"},
			"update_" + tailName + "_ms": {quantile(updates, tail) / ms, "ms"},
			"read_p50_ms":                {quantile(reads, 0.5) / ms, "ms"},
			"read_" + tailName + "_ms":   {quantile(reads, tail) / ms, "ms"},
			"conflict_p50_ms":            {quantile(conflicts, 0.5) / ms, "ms"},
		}
		report["snapshots"] = ph.snapshots
		report["distribution_ms"] = map[string]map[string]float64{"update": distribution(updates), "read": distribution(reads), "conflict": distribution(conflicts)}
		return untracedOutcome(ph.run, ph.check(), report,
			endToEndValues(setups, ph.run, heap, updates, tail, reads)), nil
	}

	p.opCap = traceOpCap
	dir, err := freshDir(work, "untraced")
	if err != nil {
		return nil, err
	}
	logs := newDocLogs(in)
	s, err := setupDocs(in, dir, logs, nil)
	if err != nil {
		return nil, err
	}
	plain := runDocsPhase(in, s, logs, p)
	problems := plain.check()
	if dir, err = freshDir(work, "traced"); err != nil {
		return nil, err
	}
	logs = newDocLogs(in)
	var setupTraces []docTrace
	if s, err = setupDocs(in, dir, logs, &setupTraces); err != nil {
		return nil, err
	}
	p.traced = true
	tph := runDocsPhase(in, s, logs, p)
	values, traces := tph.layers(setupTraces)
	problems = append(problems, tph.check()...)
	report["conflict_share_of_stale"] = tph.conflictShare()
	return tracedOutcome(in.shape.name, traceDir, report, values, traces, problems, plain.run, tph.run)
}

func untracedOutcome(run phaseRun, problems []string, report map[string]any, values map[string]float64) *outcome {
	report["operations"] = map[string]int64{"attempted": run.attempted, "answered": run.answered(), "failed": run.failed}
	report["errors"] = run.errs
	return &outcome{problems: problems, attempted: run.attempted, failed: run.failed, values: values, report: report}
}

// tracedOutcome completes a --trace 1 run: the runtime metrics of the
// untraced phase, the tracing overhead between the two phases, and the
// traces written out.
func tracedOutcome(workload, traceDir string, report map[string]any, values map[string]float64, traces []*span.Trace,
	problems []string, plain, traced phaseRun) (*outcome, error) {
	if plain.answered() == 0 || traced.answered() == 0 {
		return nil, fmt.Errorf("%s: a phase answered no operation", workload)
	}
	values["runtime.alloc_kb_per_op"] = float64(plain.allocBytes) / 1024 / float64(plain.answered())
	values["runtime.gc_pause_us_per_op"] = float64(plain.gcPauseNs) / 1000 / float64(plain.answered())
	values["trace.overhead_pct"] = (plain.opsPerSec() - traced.opsPerSec()) / plain.opsPerSec() * 100
	path, err := writeTraces(traceDir, workload, traces)
	if err != nil {
		return nil, err
	}
	exercised := make([]string, 0, len(values))
	for name := range values {
		exercised = append(exercised, name)
	}
	sort.Strings(exercised)
	report["traces"] = map[string]any{"file": path, "count": len(traces)}
	report["ops_per_s"] = map[string]float64{"untraced": plain.opsPerSec(), "traced": traced.opsPerSec()}
	report["layers_exercised"] = exercised
	report["errors"] = append(plain.errs, traced.errs...)
	report["operations"] = map[string]map[string]int64{
		"untraced": {"attempted": plain.attempted, "answered": plain.answered(), "failed": plain.failed},
		"traced":   {"attempted": traced.attempted, "answered": traced.answered(), "failed": traced.failed},
	}
	return &outcome{
		problems:  problems,
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
		values:    values,
		report:    report,
	}, nil
}

// lifecycleShare is the share of a docs stream's operations that belong
// to document lifecycles.
func lifecycleShare(shape docsShape) float64 {
	if !shape.lifecycle {
		return 0
	}
	return 3.0 / float64(len(docsDeck)+3)
}

// distribution summarizes a latency sample in milliseconds.
func distribution(ds []time.Duration) map[string]float64 {
	out := map[string]float64{"n": float64(len(ds))}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
		out[fmt.Sprintf("p%g", q*100)] = quantile(ds, q) / ms
	}
	return out
}
