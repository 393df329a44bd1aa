// Observe: watching the NP-case witness search work. A branching read
// pattern forces Detect into the bounded exhaustive search (Section 5 of
// the paper); attaching the observability channels of the facade shows
// the search's progress live, ends with a counter snapshot — candidates
// examined, compiled-pattern cache traffic, minimization savings — and
// prints the span tree that records the decisions: the method chosen,
// the Lemma 11 bound, and the candidate budget spent.
//
// Run with:
//
//	go run ./examples/observe
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"xmlconflict"
)

func main() {
	// A branching read (two predicates) against a delete that cannot
	// fire near it: no small witness exists, so the search has to grind
	// through its whole candidate budget — worth watching.
	read := xmlconflict.Read{P: xmlconflict.MustParseXPath("a[b][c]/d")}
	del := xmlconflict.Delete{P: xmlconflict.MustParseXPath("z/w")}

	st := xmlconflict.NewStats()
	progress := xmlconflict.NewProgressWriter(os.Stderr, 100*time.Millisecond)
	ctx, trace := xmlconflict.StartTrace(context.Background(), "observe")

	opts := xmlconflict.SearchOptions{MaxNodes: 7, MaxCandidates: 200_000}.
		WithStats(st).
		WithProgress(progress).
		WithContext(ctx)

	v, err := xmlconflict.Detect(read, del, xmlconflict.NodeSemantics, opts)
	if err != nil {
		log.Fatal(err)
	}
	trace.Finish()
	fmt.Printf("\nverdict: %s\n", v)
	fmt.Printf("candidates examined: %d\n\n", v.Candidates)
	fmt.Println("final stats snapshot:")
	fmt.Print(st.Snapshot())
	fmt.Println("\nspan tree:")
	trace.View().WriteTree(os.Stdout)
}
