// Command xschema works with unordered-DTD schemas (the Section 6
// "Schema Information" extension of "Conflicting XML Updates"): it
// validates documents, tests pattern satisfiability under a schema, and
// checks whether updates preserve validity.
//
// Usage:
//
//	xschema -s schema.xds validate            # document on stdin
//	xschema -s schema.xds sat <xpath>         # pattern satisfiable?
//	xschema -s schema.xds preserve insert <xpath> <xml>
//	xschema -s schema.xds preserve delete <xpath>
//	xschema -s schema.xds conflict <read-xpath> insert <xpath> <xml>
//	xschema -s schema.xds conflict <read-xpath> delete <xpath>
//
// Exit codes: 0 = yes/valid/no-conflict, 1 = no/invalid/conflict,
// 2 = usage or internal error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"xmlconflict"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("xschema", flag.ContinueOnError)
	schemaPath := fs.String("s", "", "schema file (required)")
	maxNodes := fs.Int("max", 8, "search bound for preserve/conflict")
	maxCand := fs.Int("candidates", 100_000, "candidate cap for preserve/conflict")
	trace := fs.Bool("trace", false, "print the span tree of the conflict check (static prune or search spend) to stderr at exit")
	stats := fs.Bool("stats", false, "print a telemetry counter snapshot to stderr afterwards")
	progress := fs.Bool("progress", false, "report live search progress on stderr")
	listen := fs.String("listen", "", "serve /metrics, /debug/pprof, and health probes on this address while running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *schemaPath == "" || fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "xschema: need -s <schema file> and a subcommand (validate, sat, preserve, conflict)")
		return 2
	}
	src, err := os.ReadFile(*schemaPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xschema: %v\n", err)
		return 2
	}
	s, err := xmlconflict.ParseSchema(string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "xschema: %v\n", err)
		return 2
	}

	opts := xmlconflict.SearchOptions{MaxNodes: *maxNodes, MaxCandidates: *maxCand}
	var st *xmlconflict.Stats
	if *stats || *listen != "" {
		st = xmlconflict.NewStats()
		opts = opts.WithStats(st)
		s.Instrument(st)
		if *stats {
			defer func() { fmt.Fprint(os.Stderr, st.Snapshot()) }()
		}
	}
	if *listen != "" {
		obs, addr, err := xmlconflict.ServeObservability(*listen, st)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xschema: %v\n", err)
			return 2
		}
		defer obs.Close()
		fmt.Fprintf(os.Stderr, "xschema: observability on http://%s\n", addr)
	}
	if *progress {
		opts = opts.WithProgress(xmlconflict.NewProgressWriter(os.Stderr, 0))
	}
	if *trace {
		ctx, tr := xmlconflict.StartTrace(context.Background(), "xschema")
		opts = opts.WithContext(ctx)
		defer func() {
			tr.Finish()
			tr.View().WriteTree(os.Stderr)
		}()
	}

	rest := fs.Args()
	switch rest[0] {
	case "validate":
		doc, err := xmlconflict.ParseXML(os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xschema: reading stdin: %v\n", err)
			return 2
		}
		if err := s.Validate(doc); err != nil {
			fmt.Printf("invalid: %v\n", err)
			return 1
		}
		fmt.Println("valid")
		return 0

	case "sat":
		if len(rest) != 2 {
			fmt.Fprintln(os.Stderr, "xschema: sat needs one XPath expression")
			return 2
		}
		p, err := xmlconflict.ParseXPath(rest[1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "xschema: %v\n", err)
			return 2
		}
		if s.SatisfiablePattern(p) {
			fmt.Println("possibly satisfiable (the pruner found no obstruction)")
			return 0
		}
		fmt.Println("unsatisfiable under the schema")
		return 1

	case "preserve":
		u, used, err := parseUpdate(rest[1:])
		if err != nil {
			fmt.Fprintf(os.Stderr, "xschema: %v\n", err)
			return 2
		}
		_ = used
		ok, w, err := s.ValidityPreserving(u, *maxNodes, *maxCand)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xschema: %v\n", err)
			return 2
		}
		if ok {
			fmt.Printf("validity preserved (no counterexample within %d nodes)\n", *maxNodes)
			return 0
		}
		fmt.Printf("breaks validity, e.g. on %s\n", w.XML())
		return 1

	case "conflict":
		if len(rest) < 3 {
			fmt.Fprintln(os.Stderr, "xschema: conflict needs <read-xpath> insert|delete ...")
			return 2
		}
		rp, err := xmlconflict.ParseXPath(rest[1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "xschema: %v\n", err)
			return 2
		}
		u, _, err := parseUpdate(rest[2:])
		if err != nil {
			fmt.Fprintf(os.Stderr, "xschema: %v\n", err)
			return 2
		}
		v, err := xmlconflict.DetectUnderSchema(xmlconflict.Read{P: rp}, u, xmlconflict.NodeSemantics, s, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xschema: %v\n", err)
			return 2
		}
		fmt.Printf("verdict: %s\n", v)
		if v.Conflict && v.Witness != nil {
			fmt.Printf("valid witness: %s\n", v.Witness.XML())
			return 1
		}
		return 0

	default:
		fmt.Fprintf(os.Stderr, "xschema: unknown subcommand %q\n", rest[0])
		return 2
	}
}

// parseUpdate parses "insert <xpath> <xml>" or "delete <xpath>" argument
// tails.
func parseUpdate(args []string) (xmlconflict.Update, int, error) {
	if len(args) == 0 {
		return nil, 0, fmt.Errorf(`expected "insert <xpath> <xml>" or "delete <xpath>"`)
	}
	switch args[0] {
	case "insert":
		if len(args) < 3 {
			return nil, 0, fmt.Errorf("insert needs <xpath> <xml>")
		}
		p, err := xmlconflict.ParseXPath(args[1])
		if err != nil {
			return nil, 0, err
		}
		x, err := xmlconflict.ParseXMLString(args[2])
		if err != nil {
			return nil, 0, err
		}
		return xmlconflict.Insert{P: p, X: x}, 3, nil
	case "delete":
		if len(args) < 2 {
			return nil, 0, fmt.Errorf("delete needs <xpath>")
		}
		p, err := xmlconflict.ParseXPath(args[1])
		if err != nil {
			return nil, 0, err
		}
		return xmlconflict.Delete{P: p}, 2, nil
	default:
		return nil, 0, fmt.Errorf("unknown update kind %q", args[0])
	}
}
