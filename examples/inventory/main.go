// Inventory: the Figure 1 scenario of the paper. An inventory document
// holds books with quantities; a restocking job inserts <restock/> markers
// into low-stock books while reporting queries run concurrently. The
// conflict detector classifies which queries the restocking can affect —
// statically, before any document is seen.
//
// The paper's predicate //book[.//quantity < 10] compares values, which
// the label-tree model cannot express; low-stock books instead carry a
// <low/> marker under <quantity> (see DESIGN.md, substitutions).
//
// Run with:
//
//	go run ./examples/inventory
package main

import (
	"fmt"
	"log"
	"math/rand"

	"xmlconflict"
	"xmlconflict/internal/generate"
)

func main() {
	// The restocking update from Section 1:
	//   insert t//book[.//low], <restock/>
	restock := xmlconflict.Insert{
		P: xmlconflict.MustParseXPath("//book[.//low]"),
		X: xmlconflict.MustParseXML("<restock/>"),
	}

	// Reporting queries that might run before or after restocking.
	queries := []string{
		"//restock",          // the restocking report itself
		"//book/title",       // unaffected: titles never change
		"//book/quantity",    // unaffected: quantity nodes are not added
		"//quantity/low",     // unaffected by inserting <restock/>
		"//book/*",           // affected: <restock/> is a new child of book
		"/inventory/book",    // unaffected: no new books appear
		"//publisher//name",  // unaffected
		"/inventory/restock", // unaffected: restock lands under book, not inventory
	}

	fmt.Println("restocking update: insert <restock/> at //book[.//low]")
	fmt.Println()
	for _, q := range queries {
		read := xmlconflict.Read{P: xmlconflict.MustParseXPath(q)}
		v, err := xmlconflict.Detect(read, restock, xmlconflict.NodeSemantics, xmlconflict.SearchOptions{})
		if err != nil {
			log.Fatal(err)
		}
		status := "independent — safe to reorder"
		if v.Conflict {
			status = "CONFLICTS — must run in order"
		}
		fmt.Printf("  %-22s %s\n", q, status)
	}

	// Demonstrate on a concrete inventory.
	inv := generate.Inventory(rand.New(rand.NewSource(11)), 6, 0.5)
	fmt.Println()
	fmt.Println("concrete inventory (6 books):")
	fmt.Println(" ", inv.XML())
	restocked, points, err := restock.Apply(inv)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after restocking (%d low-stock books marked):\n", len(points))
	fmt.Println(" ", restocked.XML())

	// The //book/* read really does see the difference; //book/title
	// really does not — on this document and, per the detector, on all
	// others.
	star := xmlconflict.MustParseXPath("//book/*")
	title := xmlconflict.MustParseXPath("//book/title")
	fmt.Printf("\n|//book/*| = %d, |//book/title| = %d after restocking\n",
		len(xmlconflict.Eval(star, restocked)), len(xmlconflict.Eval(title, restocked)))
}
