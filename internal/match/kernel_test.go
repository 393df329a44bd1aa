package match

import (
	"math/rand"
	"testing"

	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// smallPair draws a random pattern and tree small enough for the
// enumerating oracle.
func smallPair(rng *rand.Rand) (*pattern.Pattern, *xmltree.Tree) {
	p := pattern.Random(rng, pattern.RandomConfig{
		Size: 1 + rng.Intn(6), Labels: []string{"a", "b"},
		PWildcard: 0.3, PDescendant: 0.4, PBranch: 0.5,
	})
	t := xmltree.Random(rng, xmltree.RandomConfig{
		Size: 1 + rng.Intn(14), Labels: []string{"a", "b", "c"}, Skew: rng.Float64() * 0.5,
	})
	return p, t
}

// widePair draws a pattern of more than 64 nodes, so its bitmask rows
// span two words, with a tree it may embed into. The pattern is a spine
// of r-or-* steps (some descendant-axis), most carrying a [p] predicate,
// with a small random pattern below; the tree is a matching spine with a p
// child at each step and a small random tree at the bottom. Every [p]
// has one image, which keeps the enumerating oracle fast.
func widePair(rng *rand.Rand) (*pattern.Pattern, *xmltree.Tree) {
	p := pattern.New("r")
	n := p.Root()
	steps, size := 0, 1
	for want := 60 + rng.Intn(30); size < want; steps++ {
		if rng.Float64() < 0.8 {
			p.AddChild(n, pattern.Child, "p")
			size++
		}
		axis, label := pattern.Child, "r"
		if rng.Float64() < 0.06 {
			axis = pattern.Descendant
		}
		if rng.Float64() < 0.15 {
			label = pattern.Wildcard
		}
		n = p.AddChild(n, axis, label)
		size++
	}
	axis := pattern.Child
	if rng.Intn(2) == 0 {
		axis = pattern.Descendant
	}
	p.Attach(n, axis, pattern.Random(rng, pattern.RandomConfig{
		Size: 6 + rng.Intn(6), Labels: []string{"a", "b"},
		PWildcard: 0.3, PDescendant: 0.4, PBranch: 0.5,
	}))
	nodes := p.Nodes()
	p.SetOutput(nodes[rng.Intn(len(nodes))])

	t := xmltree.New("r")
	v := t.Root()
	for i := steps + rng.Intn(3); i > 0; i-- {
		t.AddChild(v, "p")
		if rng.Float64() < 0.1 {
			t.AddChild(v, "a")
		}
		v = t.AddChild(v, "r")
	}
	t.Graft(v, xmltree.Random(rng, xmltree.RandomConfig{
		Size: 1 + rng.Intn(10), Labels: []string{"a", "b", "c"},
	}))
	return p, t
}

// checkAgainstDefinitions compares every evaluation entry point of the
// kernel with the enumerating oracle on one pattern/tree pair.
func checkAgainstDefinitions(t *testing.T, p *pattern.Pattern, tr *xmltree.Tree) {
	t.Helper()
	want := EvalNaive(p, tr)
	inResult := map[*xmltree.Node]bool{}
	for _, n := range want {
		inResult[n] = true
	}
	if got := Eval(p, tr); !xmltree.SameNodeSet(got, want) {
		t.Fatalf("Eval(%s) on %s = %d nodes, oracle %d", p, tr, len(got), len(want))
	}
	if got := Compile(p).Eval(tr); !xmltree.SameNodeSet(got, want) {
		t.Fatalf("Compile(%s).Eval on %s disagrees with the oracle", p, tr)
	}
	if got := Embeds(p, tr); got != (len(want) > 0) {
		t.Fatalf("Embeds(%s) on %s = %v, oracle %v", p, tr, got, len(want) > 0)
	}
	anywhere := false
	for _, v := range tr.Nodes() {
		// Definition: p embeds with its root at v and the rest in v's
		// subtree, i.e. p embeds into SUBTREE_v(t).
		at := len(EvalNaive(p, tr.CloneSubtree(v))) > 0
		anywhere = anywhere || at
		if got := EmbedsAt(p, tr, v); got != at {
			t.Fatalf("EmbedsAt(%s) at node %d of %s = %v, oracle %v", p, v.ID(), tr, got, at)
		}
		e := FindEmbeddingAt(p, tr, v)
		if inResult[v] != (e != nil) {
			t.Fatalf("FindEmbeddingAt(%s) at node %d of %s: found %v, oracle %v", p, v.ID(), tr, e != nil, inResult[v])
		}
		if e != nil && (!e.Valid(p, tr) || e[p.Output()] != v) {
			t.Fatalf("FindEmbeddingAt(%s) at node %d of %s: invalid embedding", p, v.ID(), tr)
		}
	}
	if got := EmbedsAnywhere(p, tr); got != anywhere {
		t.Fatalf("EmbedsAnywhere(%s) on %s = %v, oracle %v", p, tr, got, anywhere)
	}
}

func TestKernelMatchesDefinitions(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 1500; i++ {
		p, tr := smallPair(rng)
		checkAgainstDefinitions(t, p, tr)
	}
}

func TestKernelMultiWordMatchesDefinitions(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	embedded := 0
	for i := 0; i < 50; i++ {
		p, tr := widePair(rng)
		if p.Size() <= 64 {
			t.Fatalf("pattern of %d nodes does not span two mask words", p.Size())
		}
		checkAgainstDefinitions(t, p, tr)
		if Embeds(p, tr) {
			embedded++
		}
	}
	// The generator must produce both outcomes for the test to mean much.
	if embedded == 0 || embedded == 50 {
		t.Fatalf("%d of 50 wide pairs embed; want a mix", embedded)
	}
}

func TestKernelKnownShapes(t *testing.T) {
	tr := xmltree.MustParse("<log><s0><b0><item/><n/></b0><b1><n/></b1></s0><s1><b0><n/><n/></b0></s1></log>")
	for _, c := range []struct {
		path string
		want int
	}{
		{"/log/s0/b0", 1},
		{"/log/s0/b0/n", 1},
		{"/log/*/b0/n", 3},
		{"//n", 4},
		{"//b0[item]/n", 1},
		{"/log//n", 4},
		{"/log/s1//b0", 1},
		{"/log/s2/b0", 0},
		{"/x/s0", 0},
	} {
		p := xpath.MustParse(c.path)
		if got := len(Eval(p, tr)); got != c.want {
			t.Errorf("%s selects %d nodes, want %d", c.path, got, c.want)
		}
		checkAgainstDefinitions(t, p, tr)
	}
}

// FuzzEval checks the kernel against the enumerating oracle on small
// decoded pattern/tree pairs.
func FuzzEval(f *testing.F) {
	f.Add("a[.//c]/b[d][*//f]", "<a><b><d/><e><f/></e></b><c/></a>")
	f.Add("//b", "<r><a><a><b/></a></a><b/></r>")
	f.Add("/*/*/A", "<r><x><A/></x><y><A/></y><A/></r>")
	f.Add("//a[b]", "<a><a><b/></a></a>")
	f.Fuzz(func(t *testing.T, path, doc string) {
		if len(path) > 40 || len(doc) > 400 {
			return
		}
		p, err := xpath.Parse(path)
		if err != nil || p.Size() > 8 {
			return
		}
		tr, err := xmltree.ParseString(doc)
		if err != nil || tr.Size() > 16 {
			return
		}
		checkAgainstDefinitions(t, p, tr)
	})
}
