// Command xupdate applies XPath-driven insert and delete operations to an
// XML document read from stdin and writes the result to stdout.
//
// Usage:
//
//	xupdate [-pretty] <op> <xpath> [<xml>] [<op> <xpath> [<xml>] ...]
//
// where <op> is "insert" (which takes the XML fragment to insert) or
// "delete". Operations apply left to right with the semantics of Section 3
// of "Conflicting XML Updates": insert adds a fresh copy of the fragment
// as a child of every node selected by the expression; delete removes the
// subtree rooted at every selected node. Each operation's Apply returns
// the next version of the document, which the next operation reads.
//
// Example:
//
//	xupdate insert '//book[.//low]' '<restock/>' < inventory.xml
package main

import (
	"flag"
	"fmt"
	"os"

	"xmlconflict"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("xupdate", flag.ContinueOnError)
	pretty := fs.Bool("pretty", false, "indent the output")
	listen := fs.String("listen", "", "serve /metrics, /debug/pprof, and health probes on this address while running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listen != "" {
		obs, addr, err := xmlconflict.ServeObservability(*listen, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xupdate: %v\n", err)
			return 2
		}
		defer obs.Close()
		fmt.Fprintf(os.Stderr, "xupdate: observability on http://%s\n", addr)
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fmt.Fprintln(os.Stderr, "xupdate: no operations given")
		return 2
	}

	doc, err := xmlconflict.ParseXML(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xupdate: reading stdin: %v\n", err)
		return 2
	}

	for len(rest) > 0 {
		op := rest[0]
		switch op {
		case "insert":
			if len(rest) < 3 {
				fmt.Fprintln(os.Stderr, "xupdate: insert needs <xpath> <xml>")
				return 2
			}
			p, err := xmlconflict.ParseXPath(rest[1])
			if err != nil {
				fmt.Fprintf(os.Stderr, "xupdate: %v\n", err)
				return 2
			}
			x, err := xmlconflict.ParseXMLString(rest[2])
			if err != nil {
				fmt.Fprintf(os.Stderr, "xupdate: %v\n", err)
				return 2
			}
			ins := xmlconflict.Insert{P: p, X: x}
			next, points, err := ins.Apply(doc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xupdate: %v\n", err)
				return 2
			}
			fmt.Fprintf(os.Stderr, "insert %s: %d insertion points\n", rest[1], len(points))
			doc = next
			rest = rest[3:]
		case "delete":
			if len(rest) < 2 {
				fmt.Fprintln(os.Stderr, "xupdate: delete needs <xpath>")
				return 2
			}
			p, err := xmlconflict.ParseXPath(rest[1])
			if err != nil {
				fmt.Fprintf(os.Stderr, "xupdate: %v\n", err)
				return 2
			}
			del := xmlconflict.Delete{P: p}
			next, points, err := del.Apply(doc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xupdate: %v\n", err)
				return 2
			}
			fmt.Fprintf(os.Stderr, "delete %s: %d deletion points\n", rest[1], len(points))
			doc = next
			rest = rest[2:]
		default:
			fmt.Fprintf(os.Stderr, "xupdate: unknown operation %q\n", op)
			return 2
		}
	}

	if err := doc.Write(os.Stdout, *pretty); err != nil {
		fmt.Fprintf(os.Stderr, "xupdate: writing: %v\n", err)
		return 2
	}
	if !*pretty {
		fmt.Println()
	}
	return 0
}
