// Command xconflict decides whether two XPath-driven operations on XML
// documents conflict, per "Conflicting XML Updates" (EDBT 2006).
//
// Usage:
//
//	xconflict -read <xpath> -insert <xpath> -x <xml> [-sem node|tree|value]
//	xconflict -read <xpath> -delete <xpath>          [-sem node|tree|value]
//
// Flags:
//
//	-read    the read operation's XPath expression (required)
//	-insert  the insert operation's XPath expression
//	-x       the XML fragment the insert adds (default <new/>)
//	-delete  the delete operation's XPath expression
//	-sem     conflict semantics: node (default), tree, or value
//	-shrink  minimize the witness via marking/reparenting (Lemma 11)
//	-max     witness size bound for the search fallback (branching reads)
//	-j       NP-case search workers (0 = GOMAXPROCS, 1 = sequential);
//	         verdicts are identical at any setting
//	-schema  restrict witnesses to documents valid under a schema file
//	-max-input  largest -schema file accepted in bytes (default 16 MiB)
//	-quiet   print only "conflict" or "no conflict"
//	-trace   print the span tree (method choice, per-edge cut decisions,
//	         search budget spend, shrink, durations) to stderr at exit
//	-stats   print a telemetry counter snapshot to stderr afterwards
//	-progress  report live search progress on stderr
//	-listen  serve /metrics, /debug/pprof, and health probes on this
//	         address while the detection runs (live profiling)
//
// Exactly one of -insert/-delete must be given. On a conflict the witness
// document is printed; the exit status is 0 for "no conflict", 1 for
// "conflict", and 2 for usage or internal errors, so the tool composes
// with shell scripts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"xmlconflict"
	"xmlconflict/internal/cliio"
)

// jsonVerdict is the -json output shape, stable for tooling.
type jsonVerdict struct {
	Conflict   bool     `json:"conflict"`
	Method     string   `json:"method"`
	Complete   bool     `json:"complete"`
	Semantics  string   `json:"semantics"`
	Reason     string   `json:"reason,omitempty"`
	Detail     string   `json:"detail,omitempty"`
	Edge       int      `json:"edge,omitempty"`
	Word       []string `json:"word,omitempty"`
	Witness    string   `json:"witness,omitempty"`
	Candidates int      `json:"candidates,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("xconflict", flag.ContinueOnError)
	readExpr := fs.String("read", "", "read operation XPath (required)")
	insExpr := fs.String("insert", "", "insert operation XPath")
	insXML := fs.String("x", "<new/>", "XML fragment inserted by -insert")
	delExpr := fs.String("delete", "", "delete operation XPath")
	semName := fs.String("sem", "node", "conflict semantics: node, tree, or value")
	shrink := fs.Bool("shrink", false, "minimize the witness (node semantics)")
	maxNodes := fs.Int("max", 8, "witness size bound for the search fallback")
	jobs := fs.Int("j", 1, "NP-case search workers (0 = GOMAXPROCS); the verdict is identical at any setting")
	deadline := fs.Duration("deadline", 0, "wall-clock budget for the search; exhaustion degrades the verdict to incomplete (reason \"deadline\") instead of failing")
	quiet := fs.Bool("quiet", false, "print only the verdict")
	jsonOut := fs.Bool("json", false, "emit the verdict as JSON")
	schemaPath := fs.String("schema", "", "restrict witnesses to documents valid under this schema file")
	trace := fs.Bool("trace", false, "print the span tree (method choice, per-edge cut decisions, search budget spend, shrink, durations) to stderr at exit")
	stats := fs.Bool("stats", false, "print a telemetry counter snapshot to stderr afterwards")
	progress := fs.Bool("progress", false, "report live search progress on stderr")
	listen := fs.String("listen", "", "serve /metrics, /debug/pprof, and health probes on this address while running")
	maxInput := fs.Int64("max-input", cliio.DefaultMaxInput, "largest -schema file accepted, in bytes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *readExpr == "" || (*insExpr == "") == (*delExpr == "") {
		fmt.Fprintln(os.Stderr, "xconflict: need -read and exactly one of -insert/-delete")
		fs.Usage()
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
		fmt.Fprintf(os.Stderr, "xconflict: unknown semantics %q\n", *semName)
		return 2
	}

	rp, err := xmlconflict.ParseXPath(*readExpr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xconflict: -read: %v\n", err)
		return 2
	}
	read := xmlconflict.Read{P: rp}

	var upd xmlconflict.Update
	if *insExpr != "" {
		ip, err := xmlconflict.ParseXPath(*insExpr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xconflict: -insert: %v\n", err)
			return 2
		}
		x, err := xmlconflict.ParseXMLString(*insXML)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xconflict: -x: %v\n", err)
			return 2
		}
		upd = xmlconflict.Insert{P: ip, X: x}
	} else {
		dp, err := xmlconflict.ParseXPath(*delExpr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xconflict: -delete: %v\n", err)
			return 2
		}
		upd = xmlconflict.Delete{P: dp}
	}

	opts := xmlconflict.SearchOptions{MaxNodes: *maxNodes}
	if *deadline > 0 {
		opts = opts.WithTimeout(*deadline)
	}
	var st *xmlconflict.Stats
	if *stats || *listen != "" {
		st = xmlconflict.NewStats()
		opts = opts.WithStats(st)
	}
	if *listen != "" {
		obs, addr, err := xmlconflict.ServeObservability(*listen, st)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xconflict: %v\n", err)
			return 2
		}
		defer obs.Close()
		fmt.Fprintf(os.Stderr, "xconflict: observability on http://%s\n", addr)
	}
	if *progress {
		opts = opts.WithProgress(xmlconflict.NewProgressWriter(os.Stderr, 0))
	}
	if *trace {
		ctx, tr := xmlconflict.StartTrace(context.Background(), "xconflict")
		opts = opts.WithContext(ctx)
		defer func() {
			tr.Finish()
			tr.View().WriteTree(os.Stderr)
		}()
	}

	var v xmlconflict.Verdict
	if *schemaPath != "" {
		src, err := cliio.ReadFile(*schemaPath, *maxInput)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xconflict: %v\n", err)
			return 2
		}
		s, err := xmlconflict.ParseSchema(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "xconflict: %v\n", err)
			return 2
		}
		if st != nil {
			s.Instrument(st)
		}
		v, err = xmlconflict.DetectUnderSchema(read, upd, sem, s, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xconflict: %v\n", err)
			return 2
		}
	} else if *jobs != 1 {
		var err error
		v, err = xmlconflict.DetectParallel(read, upd, sem, opts, *jobs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xconflict: %v\n", err)
			return 2
		}
	} else {
		var err error
		v, err = xmlconflict.Detect(read, upd, sem, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xconflict: %v\n", err)
			return 2
		}
	}
	if st != nil {
		defer func() { fmt.Fprint(os.Stderr, st.Snapshot()) }()
	}
	if *jsonOut {
		out := jsonVerdict{
			Conflict:   v.Conflict,
			Method:     v.Method,
			Complete:   v.Complete,
			Reason:     v.Reason,
			Detail:     v.Detail,
			Semantics:  sem.String(),
			Edge:       v.Edge,
			Word:       v.Word,
			Candidates: v.Candidates,
		}
		if v.Witness != nil {
			out.Witness = v.Witness.XML()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "xconflict: %v\n", err)
			return 2
		}
		if v.Conflict {
			return 1
		}
		return 0
	}
	if *quiet {
		if v.Conflict {
			fmt.Println("conflict")
			return 1
		}
		fmt.Println("no conflict")
		return 0
	}
	fmt.Printf("verdict:  %s\n", v)
	if v.Conflict && v.Witness != nil {
		w := v.Witness
		if *shrink && sem == xmlconflict.NodeSemantics {
			if s, err := xmlconflict.ShrinkWitnessObserved(w, read, upd, opts); err == nil {
				w = s
			}
		}
		fmt.Printf("witness:  %s\n", w.XML())
		fmt.Printf("          (%d nodes)\n", w.Size())
	}
	if !v.Complete {
		fmt.Println("note:     the verdict rests on a bounded search that was inconclusive")
		fmt.Println("          (detection here is NP-complete or, under a schema, of open")
		fmt.Println("          complexity) — raise -max for more confidence")
		if v.Reason != "" {
			fmt.Printf("reason:   %s\n", v.Reason)
		}
	}
	if v.Conflict {
		return 1
	}
	return 0
}
