package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xmlconflict/internal/match"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

func TestReparentShape(t *testing.T) {
	// Chain a - x1 - ... - x6 - v; reparent v w.r.t. the root with k = 1:
	// the path root→v becomes root, 2 alphas, v.
	tr := xmltree.New("a")
	n := tr.Root()
	for i := 0; i < 6; i++ {
		n = tr.AddChild(n, "x")
	}
	v := tr.AddChild(n, "v")
	if err := Reparent(tr, tr.Root(), v, 1, "alpha"); err != nil {
		t.Fatal(err)
	}
	// v's new path: root, alpha, alpha, v.
	if got := pathNodeCount(tr.Root(), v); got != 4 {
		t.Fatalf("path count = %d, want 4", got)
	}
	parents := tr.Parents()
	if parents[v].Label() != "alpha" || parents[parents[v]].Label() != "alpha" {
		t.Fatalf("alpha chain missing")
	}
	// The old chain dangles but is still in the tree.
	if tr.Size() != 1+6+2+1 {
		t.Fatalf("size = %d", tr.Size())
	}
}

func TestReparentRejectsShortPaths(t *testing.T) {
	tr := xmltree.New("a")
	b := tr.AddChild(tr.Root(), "b")
	c := tr.AddChild(b, "c")
	if err := Reparent(tr, tr.Root(), c, 1, "alpha"); err == nil {
		t.Fatalf("path of 3 nodes accepted with k=1 (needs > 4)")
	}
	if err := Reparent(tr, c, b, 0, "alpha"); err == nil {
		t.Fatalf("non-ancestor accepted")
	}
}

func TestLemma9NoNewResults(t *testing.T) {
	// Reparenting with respect to p never adds results of p among the
	// pre-existing nodes (Lemma 9).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := xpath.MustParse([]string{"//b", "/a//b", "//*/b", "/a/*//b", "//a//*"}[rng.Intn(5)])
		// Build a tree with a long chain to allow reparenting.
		tr := xmltree.New("a")
		n := tr.Root()
		depth := rng.Intn(4) + 7
		for i := 0; i < depth; i++ {
			n = tr.AddChild(n, []string{"a", "b"}[rng.Intn(2)])
			if rng.Float64() < 0.4 {
				tr.AddChild(n, []string{"a", "b"}[rng.Intn(2)])
			}
		}
		k := p.StarLength()
		before := map[int]bool{}
		for _, r := range match.Eval(p, tr) {
			before[r.ID()] = true
		}
		ids := map[int]bool{}
		for _, m := range tr.Nodes() {
			ids[m.ID()] = true
		}
		// Reparent the deepest node with respect to the root.
		if pathNodeCount(tr.Root(), n) <= k+3 {
			return true
		}
		if err := Reparent(tr, tr.Root(), n, k, "zalpha"); err != nil {
			return false
		}
		for _, r := range match.Eval(p, tr) {
			if ids[r.ID()] && !before[r.ID()] {
				t.Logf("new result %d for %s on reparented tree %s", r.ID(), p, tr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// inflate pads a witness with long irrelevant chains and stray subtrees so
// ShrinkWitness has something to do.
func inflate(w *xmltree.Tree, rng *rand.Rand, fresh string) *xmltree.Tree {
	t := w.Clone()
	nodes := t.Nodes()
	// Splice a long chain above a random leaf-ward node... splicing is
	// intrusive; instead hang heavy irrelevant subtrees off random nodes.
	for i := 0; i < 5; i++ {
		n := nodes[rng.Intn(len(nodes))]
		c := t.AddChild(n, fresh)
		for j := 0; j < rng.Intn(20)+10; j++ {
			c = t.AddChild(c, fresh)
		}
	}
	return t
}

func TestShrinkWitnessInsert(t *testing.T) {
	r := xpath.MustParse("//C")
	ins := ops.Insert{P: xpath.MustParse("/*/B"), X: xmltree.MustParse("<C/>")}
	v, err := ReadInsertLinear(r, ins, ops.NodeSemantics)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Conflict {
		t.Fatal("setup: expected conflict")
	}
	rng := rand.New(rand.NewSource(42))
	big := inflate(v.Witness, rng, "pad")
	read := ops.Read{P: r}
	small, err := ShrinkWitness(big, read, ins)
	if err != nil {
		t.Fatal(err)
	}
	bound := WitnessBound(read, ins) + 4 // chain slack
	if small.Size() > bound {
		t.Fatalf("shrunk witness has %d nodes, bound %d", small.Size(), bound)
	}
	if small.Size() >= big.Size() {
		t.Fatalf("no shrinkage: %d → %d", big.Size(), small.Size())
	}
	ok, err := ops.NodeConflictWitness(read, ins, small)
	if err != nil || !ok {
		t.Fatalf("shrunk tree is not a witness: %v %v", ok, err)
	}
}

func TestShrinkWitnessDelete(t *testing.T) {
	r := xpath.MustParse("/a//c")
	d := ops.Delete{P: xpath.MustParse("/a/b")}
	v, err := ReadDeleteLinear(r, d, ops.NodeSemantics)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Conflict {
		t.Fatal("setup: expected conflict")
	}
	rng := rand.New(rand.NewSource(7))
	big := inflate(v.Witness, rng, "pad")
	read := ops.Read{P: r}
	small, err := ShrinkWitness(big, read, d)
	if err != nil {
		t.Fatal(err)
	}
	if small.Size() >= big.Size() {
		t.Fatalf("no shrinkage: %d → %d", big.Size(), small.Size())
	}
	ok, err := ops.NodeConflictWitness(read, d, small)
	if err != nil || !ok {
		t.Fatalf("shrunk tree is not a witness: %v %v", ok, err)
	}
}

func TestShrinkWitnessLongChains(t *testing.T) {
	// A witness with a very long chain between the essential nodes: the
	// read //b with star-free pattern shrinks chains to k+3 = 3 nodes.
	r := xpath.MustParse("//b")
	d := ops.Delete{P: xpath.MustParse("//b")}
	tr := xmltree.New("a")
	n := tr.Root()
	for i := 0; i < 400; i++ {
		n = tr.AddChild(n, "x")
	}
	tr.AddChild(n, "b")
	read := ops.Read{P: r}
	small, err := ShrinkWitness(tr, read, d)
	if err != nil {
		t.Fatal(err)
	}
	if small.Size() > 8 {
		t.Fatalf("chain not compressed: %d nodes (%s)", small.Size(), small)
	}
}

func TestShrinkWitnessRandomizedProperty(t *testing.T) {
	// E6 property: for random linear conflicts, inflating then shrinking
	// yields a verified witness within the Lemma 11 bound (plus the k+3
	// chain slack per marked node pair, bounded by a small constant
	// factor).
	f := func(seed int64, isInsert bool) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randLinear(rng, 4)
		var u ops.Update
		if isInsert {
			u = ops.Insert{
				P: randLinear(rng, 3),
				X: xmltree.Random(rng, xmltree.RandomConfig{Size: rng.Intn(3) + 1, Labels: []string{"a", "b"}}),
			}
		} else {
			dp := randLinear(rng, 3)
			if dp.Output() == dp.Root() {
				n := dp.AddChild(dp.Output(), 0, "a")
				dp.SetOutput(n)
			}
			u = ops.Delete{P: dp}
		}
		read := ops.Read{P: r}
		v, err := Detect(read, u, ops.NodeSemantics, SearchOptions{})
		if err != nil || !v.Conflict {
			return err == nil // vacuous when no conflict
		}
		big := inflate(v.Witness, rng, "zpad")
		small, err := ShrinkWitness(big, read, u)
		if err != nil {
			t.Logf("shrink failed: r=%s u=%s: %v", r, u.Pattern(), err)
			return false
		}
		k := r.StarLength()
		bound := read.P.Size() * u.Pattern().Size() * (k + 3) // generous slack
		if small.Size() > bound+u.Pattern().Size() {
			t.Logf("no bound: %d > %d (r=%s u=%s)", small.Size(), bound, r, u.Pattern())
			return false
		}
		ok, err := ops.NodeConflictWitness(read, u, small)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
