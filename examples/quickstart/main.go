// Quickstart: parse two XPath expressions, ask whether the operations
// conflict, and inspect the witness document the detector constructs.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"xmlconflict"
)

func main() {
	// The paper's running example (Section 1): a program reads //C from a
	// document and, in between, inserts <C/> under every B child of the
	// root. May the compiler reorder the two?
	read := xmlconflict.Read{P: xmlconflict.MustParseXPath("//C")}
	insert := xmlconflict.Insert{
		P: xmlconflict.MustParseXPath("/*/B"),
		X: xmlconflict.MustParseXML("<C/>"),
	}

	v, err := xmlconflict.Detect(read, insert, xmlconflict.NodeSemantics, xmlconflict.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("read //C vs insert <C/> at /*/B:", v)
	fmt.Println("witness document:", v.Witness.XML())

	// The witness is a real document: run the operations on it and watch
	// the read's result change.
	before := read.Eval(v.Witness)
	after, _, err := insert.Apply(v.Witness)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  |read before insert| = %d, |read after insert| = %d\n",
		len(before), len(read.Eval(after)))

	// A read of //D, however, can never observe this insertion — on any
	// document whatsoever (that is the paper's guarantee, not a test on
	// one input).
	readD := xmlconflict.Read{P: xmlconflict.MustParseXPath("//D")}
	v, err = xmlconflict.Detect(readD, insert, xmlconflict.NodeSemantics, xmlconflict.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("read //D vs insert <C/> at /*/B:", v)

	// Deletions work the same way.
	del := xmlconflict.Delete{P: xmlconflict.MustParseXPath("/a/b")}
	readC := xmlconflict.Read{P: xmlconflict.MustParseXPath("/a/b//c")}
	v, err = xmlconflict.Detect(readC, del, xmlconflict.NodeSemantics, xmlconflict.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("read /a/b//c vs delete /a/b:", v)
	fmt.Println("witness document:", v.Witness.XML())
}
