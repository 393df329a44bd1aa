// Command xbench regenerates the experiments of EXPERIMENTS.md: the
// reproduction of every theorem, lemma, and figure of "Conflicting XML
// Updates" (EDBT 2006), as correctness validations plus complexity-shape
// measurements.
//
// Usage:
//
//	xbench                     run all experiments (E1-E19)
//	xbench -run E3,E7          run selected experiments
//	xbench -reps 10            increase averaging repetitions
//	xbench -seed 42            change the workload seed
//	xbench -md                 emit Markdown tables (for EXPERIMENTS.md)
//	xbench -json               emit one JSON object per experiment
//	xbench -samples 5          wall-time samples per experiment (quantiles)
//	xbench -json -out BENCH_x.json   also write a trajectory file
//	xbench -compare old.json,new.json   flag >30% ns/op regressions
//	xbench -listen :9090       serve /metrics + /debug/pprof while grinding
//
// With -json each experiment becomes one line of machine-readable output:
//
//	{"id":"E7","name":"...","rows":4,"samples":3,"ns_per_op":1234,
//	 "p50_ns":...,"p90_ns":...,"p99_ns":...,"metrics":{...}}
//
// ns_per_op is the fastest sample's wall time divided by the row count;
// p50/p90/p99 are quantiles of per-sample wall time (degenerate with
// -samples 1); metrics carries the telemetry counters the experiment's
// decision procedures recorded.
//
// -out writes the same results as one schema-stable BENCH_<label>.json
// trajectory file. -compare loads two such files and reports every
// experiment whose ns/op regressed beyond 30%: exit 0 when clean, 1 when
// regressions were flagged, 2 on errors. CI runs it report-only against
// the committed BENCH_pr9.json baseline, the newest trajectory point.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"xmlconflict/internal/experiments"
	"xmlconflict/internal/telemetry/obshttp"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("xbench", flag.ContinueOnError)
	runIDs := fs.String("run", "", "comma-separated experiment ids (default: all)")
	seed := fs.Int64("seed", 1, "workload seed")
	reps := fs.Int("reps", 3, "averaging repetitions")
	md := fs.Bool("md", false, "emit Markdown tables")
	jsonOut := fs.Bool("json", false, "emit one JSON object per experiment")
	samples := fs.Int("samples", 1, "wall-time samples per experiment (latency quantiles)")
	out := fs.String("out", "", "write results as a BENCH_<label>.json trajectory file")
	label := fs.String("label", "", "trajectory label (default: derived from -out filename)")
	compare := fs.String("compare", "", "compare two trajectory files: baseline.json,current.json")
	withSpan := fs.Bool("span", false, "trace one representative iteration per experiment and embed its span tree in the -out report")
	listen := fs.String("listen", "", "serve /metrics, /debug/pprof, and health probes on this address while running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listen != "" {
		obs, addr, err := obshttp.Serve(*listen, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xbench: %v\n", err)
			return 2
		}
		defer obs.Close()
		fmt.Fprintf(os.Stderr, "xbench: observability on http://%s\n", addr)
	}
	if *compare != "" {
		return runCompare(*compare)
	}

	ids := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19"}
	if *runIDs != "" {
		ids = ids[:0]
		for _, id := range strings.Split(*runIDs, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	enc := json.NewEncoder(os.Stdout)
	var results []experiments.BenchResult
	for _, id := range ids {
		res, tb, err := experiments.Measure(id, *seed, *reps, *samples)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xbench: %v\n", err)
			return 2
		}
		if *withSpan {
			// A separate reps=1 run outside the timed samples, so the
			// trace never distorts the measurement it explains.
			sv, err := experiments.MeasureSpan(id, *seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xbench: -span %s: %v\n", id, err)
				return 2
			}
			res.Span = sv
		}
		if *out != "" {
			results = append(results, res)
		}
		switch {
		case *jsonOut:
			if err := enc.Encode(res); err != nil {
				fmt.Fprintf(os.Stderr, "xbench: %v\n", err)
				return 2
			}
		case *md:
			printMarkdown(tb)
		default:
			printPlain(tb)
		}
	}
	if *out != "" {
		f := experiments.NewBenchFile(trajectoryLabel(*label, *out), *seed, *reps, results)
		if err := experiments.WriteBenchFile(*out, f); err != nil {
			fmt.Fprintf(os.Stderr, "xbench: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "xbench: wrote %s (%d experiments)\n", *out, len(results))
	}
	return 0
}

// trajectoryLabel derives a label from the -out filename when -label is
// not given: "BENCH_ci.json" -> "ci".
func trajectoryLabel(label, out string) string {
	if label != "" {
		return label
	}
	base := strings.TrimSuffix(filepath.Base(out), ".json")
	base = strings.TrimPrefix(base, "BENCH_")
	if base == "" {
		return "run"
	}
	return base
}

// runCompare is the -compare mode: report regressions between two
// trajectory files. Exit 0 = clean, 1 = regressions, 2 = errors.
func runCompare(spec string) int {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		fmt.Fprintln(os.Stderr, "xbench: -compare needs baseline.json,current.json")
		return 2
	}
	oldF, err := experiments.LoadBenchFile(strings.TrimSpace(parts[0]))
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbench: %v\n", err)
		return 2
	}
	newF, err := experiments.LoadBenchFile(strings.TrimSpace(parts[1]))
	if err != nil {
		fmt.Fprintf(os.Stderr, "xbench: %v\n", err)
		return 2
	}
	regs, notes := experiments.CompareBench(oldF, newF, experiments.DefaultRegressionThreshold)
	fmt.Print(experiments.FormatComparison(oldF, newF, regs, notes))
	if len(regs) > 0 {
		return 1
	}
	return 0
}

func printPlain(t experiments.Table) {
	fmt.Printf("=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", maxInt(0, widths[i]-len(c))))
			}
		}
		fmt.Println("  " + strings.TrimRight(b.String(), " "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	fmt.Println()
}

func printMarkdown(t experiments.Table) {
	fmt.Printf("### %s — %s\n\n", t.ID, t.Title)
	fmt.Println("| " + strings.Join(t.Header, " | ") + " |")
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Println("| " + strings.Join(seps, " | ") + " |")
	for _, row := range t.Rows {
		fmt.Println("| " + strings.Join(row, " | ") + " |")
	}
	fmt.Println()
	for _, n := range t.Notes {
		fmt.Printf("*%s*\n\n", n)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
