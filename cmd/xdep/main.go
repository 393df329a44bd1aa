// Command xdep analyzes a pidgin XML-update program (Section 1 of
// "Conflicting XML Updates") for data dependences: it reports which
// statement pairs conflict, which reads a compiler may hoist past updates,
// and which repeated reads are redundant.
//
// Usage:
//
//	xdep [-sem node|tree|value] [-j N] [-O] [-run] [-trace] [-stats]
//	     [-progress] [-listen addr] [-max-input N] [program.xup]
//
// The program is read from the named file, or stdin if none is given;
// -max-input bounds how many bytes are accepted (default 16 MiB) so an
// oversized or runaway input fails cleanly instead of exhausting
// memory.
// With -O the optimizer applies the rewrites the analysis licenses
// (hoisting, common subexpression elimination) and prints the rewritten
// program. With -run the (possibly optimized) program is also executed
// and the read results printed. A parallel schedule — statements grouped
// into concurrently executable stages — is always reported.
//
// Program syntax (one statement per line, # comments):
//
//	x = doc <x><B/><A/></x>
//	y = read $x//A
//	insert $x/B, <C/>
//	z = read $x//C
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"xmlconflict"
	"xmlconflict/internal/cliio"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("xdep", flag.ContinueOnError)
	semName := fs.String("sem", "node", "conflict semantics: node, tree, or value")
	jobs := fs.Int("j", 1, "pairwise analysis workers (0 = GOMAXPROCS); verdicts are identical at any setting")
	deadline := fs.Duration("deadline", 0, "wall-clock budget for the analysis; pairs searched past it are conservatively assumed dependent (reason \"deadline\")")
	exec := fs.Bool("run", false, "also execute the program")
	optimize := fs.Bool("O", false, "apply hoisting and CSE, print the rewritten program")
	trace := fs.Bool("trace", false, "print the span tree of the analysis (each pair's cache disposition, method choice and search spend) to stderr at exit")
	stats := fs.Bool("stats", false, "print a telemetry counter snapshot to stderr afterwards")
	progress := fs.Bool("progress", false, "report live search progress on stderr")
	listen := fs.String("listen", "", "serve /metrics, /debug/pprof, and health probes on this address while running")
	maxInput := fs.Int64("max-input", cliio.DefaultMaxInput, "largest program input accepted, in bytes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var sem xmlconflict.Semantics
	switch *semName {
	case "node":
		sem = xmlconflict.NodeSemantics
	case "tree":
		sem = xmlconflict.TreeSemantics
	case "value":
		sem = xmlconflict.ValueSemantics
	default:
		fmt.Fprintf(os.Stderr, "xdep: unknown semantics %q\n", *semName)
		return 2
	}

	var src []byte
	var err error
	if fs.NArg() > 0 {
		src, err = cliio.ReadFile(fs.Arg(0), *maxInput)
	} else {
		src, err = cliio.ReadAll(os.Stdin, "stdin", *maxInput)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "xdep: %v\n", err)
		return 2
	}

	prog, err := xmlconflict.ParseProgram(string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "xdep: %v\n", err)
		return 2
	}
	var search xmlconflict.SearchOptions
	if *deadline > 0 {
		search = search.WithTimeout(*deadline)
	}
	var st *xmlconflict.Stats
	if *stats || *listen != "" {
		st = xmlconflict.NewStats()
		search = search.WithStats(st)
	}
	if *listen != "" {
		obs, addr, err := xmlconflict.ServeObservability(*listen, st)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xdep: %v\n", err)
			return 2
		}
		defer obs.Close()
		fmt.Fprintf(os.Stderr, "xdep: observability on http://%s\n", addr)
	}
	if *progress {
		search = search.WithProgress(xmlconflict.NewProgressWriter(os.Stderr, 0))
	}
	if *trace {
		ctx, tr := xmlconflict.StartTrace(context.Background(), "xdep")
		search = search.WithContext(ctx)
		defer func() {
			tr.Finish()
			tr.View().WriteTree(os.Stderr)
		}()
	}
	workers := *jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The cache pays off even sequentially (programs repeat patterns) and
	// is shared by the -O re-analysis below.
	aopts := xmlconflict.AnalyzeOptions{
		Sem:     sem,
		Search:  search,
		Workers: workers,
		Cache:   xmlconflict.NewDetectorCache(0),
	}
	if st != nil {
		aopts.Cache.Instrument(st)
	}
	analysis, err := xmlconflict.AnalyzeProgram(prog, aopts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xdep: %v\n", err)
		return 2
	}
	if st != nil {
		defer func() { fmt.Fprint(os.Stderr, st.Snapshot()) }()
	}
	fmt.Print(analysis.Report())
	fmt.Println("parallel schedule (statements per concurrent stage):")
	for i, stage := range analysis.ParallelSchedule().Stages {
		fmt.Printf("  stage %d: %v\n", i, stage)
	}

	if *optimize {
		opt, err := xmlconflict.OptimizeProgram(prog, aopts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xdep: optimize: %v\n", err)
			return 2
		}
		fmt.Println("optimizations:")
		if len(opt.Applied) == 0 {
			fmt.Println("  none applicable")
		}
		for _, a := range opt.Applied {
			fmt.Printf("  %s: %s\n", a.Kind, a.Description)
		}
		fmt.Println("optimized program:")
		for _, line := range strings.Split(strings.TrimRight(opt.Prog.Source(), "\n"), "\n") {
			fmt.Println("  " + line)
		}
		prog = opt.Prog
	}

	if *exec {
		docs, reads, err := prog.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "xdep: run: %v\n", err)
			return 2
		}
		fmt.Println("execution:")
		for _, name := range sortedKeys(reads) {
			fmt.Printf("  %s = %d node(s):", name, len(reads[name]))
			for _, n := range reads[name] {
				fmt.Printf(" %s", n.Label())
			}
			fmt.Println()
		}
		for _, name := range sortedKeys(docs) {
			fmt.Printf("  $%s final: %s\n", name, docs[name].XML())
		}
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
