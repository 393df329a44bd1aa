package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xmlconflict/internal/ops"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

func TestEnumerateTreesCountsAndUniqueness(t *testing.T) {
	// With 1 label: 1 tree of size 1; 1 of size 2; 2 of size 3 (chain and
	// cherry); 4 of size 4 (the unordered rooted trees).
	wantsOneLabel := map[int]int{1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20}
	for n, want := range wantsOneLabel {
		if got := CountTrees(1, n); got != want {
			t.Errorf("CountTrees(1, %d) = %d, want %d", n, got, want)
		}
	}
	// With 2 labels: size 1 → 2; size 2 → 4; size 3: root(2) × forests of
	// size 2: {t2} (4) + {t1,t1} multiset (3) = 7 → 14.
	wantsTwoLabels := map[int]int{1: 2, 2: 4, 3: 14}
	for n, want := range wantsTwoLabels {
		if got := CountTrees(2, n); got != want {
			t.Errorf("CountTrees(2, %d) = %d, want %d", n, got, want)
		}
	}
}

func TestEnumerateTreesNoDuplicates(t *testing.T) {
	seen := map[string]bool{}
	EnumerateTrees([]string{"a", "b"}, 4, func(tr *xmltree.Tree) bool {
		c := xmltree.Code(tr.Root())
		if seen[c] {
			t.Fatalf("duplicate isomorphism class: %s", tr)
		}
		seen[c] = true
		return true
	})
	want := 2 + 4 + 14 + 52
	if len(seen) != want {
		t.Fatalf("enumerated %d classes, want %d", len(seen), want)
	}
}

func TestEnumerateTreesEarlyStop(t *testing.T) {
	n := 0
	EnumerateTrees([]string{"a"}, 6, func(tr *xmltree.Tree) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop failed: %d", n)
	}
}

func TestEnumerateTreesSizeOrder(t *testing.T) {
	last := 0
	EnumerateTrees([]string{"a", "b"}, 4, func(tr *xmltree.Tree) bool {
		if tr.Size() < last {
			t.Fatalf("size order violated")
		}
		last = tr.Size()
		return true
	})
}

func TestWitnessBound(t *testing.T) {
	r := ops.Read{P: xpath.MustParse("/a/*/*")} // size 3, star length 2
	u := ops.Insert{P: xpath.MustParse("/a/b"), X: xmltree.MustParse("<x/>")}
	if got := WitnessBound(r, u); got != 3*2*3 {
		t.Fatalf("WitnessBound = %d, want 18", got)
	}
}

func TestSearchConflictFindsBranchingWitness(t *testing.T) {
	// Read a[q]/b is branching; inserting <b/> under a conflicts exactly
	// when the tree has an a-root with a q child.
	r := ops.Read{P: xpath.MustParse("a[q]/b")}
	ins := ops.Insert{P: xpath.MustParse("a"), X: xmltree.MustParse("<b/>")}
	v, err := SearchConflict(r, ins, ops.NodeSemantics, SearchOptions{MaxNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Conflict || v.Witness == nil {
		t.Fatalf("no conflict found: %v", v)
	}
	if v.Witness.Size() != 2 {
		t.Fatalf("search should find the minimal witness (size 2), got %s", v.Witness)
	}
	ok, err := ops.NodeConflictWitness(r, ins, v.Witness)
	if err != nil || !ok {
		t.Fatalf("returned witness does not verify: %v %v", ok, err)
	}
}

func TestSearchConflictNegativeComplete(t *testing.T) {
	// a[q]/b vs deleting /z/w: the patterns share nothing; a complete
	// search up to the full bound proves no conflict.
	r := ops.Read{P: xpath.MustParse("a/b")}
	d := ops.Delete{P: xpath.MustParse("z/w")}
	v, err := SearchConflict(r, d, ops.NodeSemantics, SearchOptions{MaxNodes: 4, MaxCandidates: 500_000})
	if err != nil {
		t.Fatal(err)
	}
	if v.Conflict || !v.Complete {
		t.Fatalf("want a complete negative: %v", v)
	}
}

func TestSearchConflictTruncationReported(t *testing.T) {
	r := ops.Read{P: xpath.MustParse("a[b][c]/d")}
	d := ops.Delete{P: xpath.MustParse("z/w")}
	v, err := SearchConflict(r, d, ops.NodeSemantics, SearchOptions{MaxNodes: 8, MaxCandidates: 50})
	if err != nil {
		t.Fatal(err)
	}
	if v.Conflict || v.Complete {
		t.Fatalf("truncated search must be incomplete and negative: %v", v)
	}
}

func TestSearchAlphabet(t *testing.T) {
	r := ops.Read{P: xpath.MustParse("a/b")}
	ins := ops.Insert{P: xpath.MustParse("a/c"), X: xmltree.MustParse("<d/>")}
	labels := SearchAlphabet(r, ins)
	set := map[string]bool{}
	for _, l := range labels {
		set[l] = true
	}
	for _, want := range []string{"a", "b", "c", "d"} {
		if !set[want] {
			t.Fatalf("alphabet %v missing %s", labels, want)
		}
	}
	if len(labels) != 5 {
		t.Fatalf("alphabet should have exactly one fresh symbol: %v", labels)
	}
}

func TestSearchConflictErrorPropagation(t *testing.T) {
	// A delete pattern selecting the root errors during checking.
	r := ops.Read{P: xpath.MustParse("a[b]/c")}
	bad := ops.Delete{P: xpath.MustParse("a")}
	if _, err := SearchConflict(r, bad, ops.NodeSemantics, SearchOptions{MaxNodes: 3}); err == nil {
		t.Fatalf("bad delete accepted")
	}
}

// TestSweepBudgetContract: every sweep tests the candidate cap before it
// charges a step, so a cap of 5 examines, counts, charges and reports
// (verdict, detail, counter, search span) exactly 5 candidates. The schema-aware sweep is held to the same
// contract by TestSchemaSearchCandidateCap.
func TestSweepBudgetContract(t *testing.T) {
	for _, c := range []struct {
		name     string
		counters string
		run      func(SearchOptions) (Verdict, error)
	}{
		{"read-delete", "search", func(o SearchOptions) (Verdict, error) {
			return SearchConflict(ops.Read{P: xpath.MustParse("a[b][c]/d")}, mustDelete("z/w"), ops.NodeSemantics, o)
		}},
		{"update-update", "updupd", func(o SearchOptions) (Verdict, error) {
			// Not independent (the insert adds the delete's points), and
			// the smallest witness has three nodes: the cap stops first.
			return UpdateUpdateConflict(mustInsert("/r/a/b", "<x/>"), mustDelete("/r/a/b/x"), o)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := telemetry.New()
			steps := NewStepBudget(100)
			opts, tr := traced(SearchOptions{MaxNodes: 8, MaxCandidates: 5, Steps: steps}.WithStats(st))
			v, err := c.run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if sp := onlySpan(t, tr, "search"); sp.Attrs["candidates"] != 5 || sp.Attrs["reason"] != ReasonCandidateCap {
				t.Fatalf("search span: %+v", sp.Attrs)
			}
			if v.Conflict || v.Complete || v.Reason != ReasonCandidateCap || v.Candidates != 5 {
				t.Fatalf("capped sweep: %+v, want 5 candidates and reason %q", v, ReasonCandidateCap)
			}
			if !strings.Contains(v.Detail, " 5 candidates") {
				t.Fatalf("detail %q does not report 5 candidates", v.Detail)
			}
			snap := st.Snapshot()
			if got := snap.Counter(c.counters + ".candidates"); got != 5 {
				t.Fatalf("%s.candidates = %d, want 5", c.counters, got)
			}
			if got := snap.Counter(c.counters + ".truncated"); got != 1 {
				t.Fatalf("%s.truncated = %d, want 1", c.counters, got)
			}
			if spent := 100 - steps.Remaining(); spent != 5 {
				t.Fatalf("step budget charged %d steps, want 5", spent)
			}
		})
	}
}

// TestSearchConcurrentSharedStats drives searches from many goroutines
// at once over one shared Stats registry: the scenario the race
// detector must bless (CI runs the suite under -race).
func TestSearchConcurrentSharedStats(t *testing.T) {
	r := ops.Read{P: xpath.MustParse("a[q]/b")}
	ins := mustInsert("a", "<b/>")
	st := telemetry.New()
	opts := SearchOptions{MaxNodes: 4}.WithStats(st)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	total := make([]int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := SearchConflict(r, ins, ops.NodeSemantics, opts)
			if err == nil && !v.Conflict {
				err = fmt.Errorf("goroutine %d: no conflict: %+v", i, v)
			}
			if err != nil {
				errs <- err
				return
			}
			total[i] = v.Candidates
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := 0
	for _, n := range total {
		want += n
	}
	if got := st.Snapshot().Counter("search.candidates"); got != int64(want) || got == 0 {
		t.Fatalf("shared stats recorded %d candidates, the verdicts %d", got, want)
	}
}
