package match

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

func TestEvalSet(t *testing.T) {
	tr := xmltree.MustParse("<a><b/><b/></a>")
	set := EvalSet(xpath.MustParse("/a/b"), tr)
	if len(set) != 2 {
		t.Fatalf("EvalSet = %v", set)
	}
	for _, n := range Eval(xpath.MustParse("/a/b"), tr) {
		if !set[n.ID()] {
			t.Fatalf("id %d missing", n.ID())
		}
	}
}

func TestEmbeddingValidRejectsPartial(t *testing.T) {
	p := xpath.MustParse("/a/b")
	tr := xmltree.MustParse("<a><b/></a>")
	e := Embedding{}
	if e.Valid(p, tr) {
		t.Fatalf("empty assignment accepted")
	}
	// A label-violating assignment is rejected.
	bad := Embedding{p.Root(): tr.Root(), p.Output(): tr.Root()}
	if bad.Valid(p, tr) {
		t.Fatalf("label/edge violation accepted")
	}
}

func TestFindEmbeddingAtRootTargetMismatch(t *testing.T) {
	p := xpath.MustParse("/a/b")
	tr := xmltree.MustParse("<a><b/></a>")
	// Target in a different tree: not on a root path of tr.
	other := xmltree.MustParse("<a><b/></a>")
	if FindEmbeddingAt(p, tr, other.Root().Children()[0]) != nil {
		t.Fatalf("foreign target accepted")
	}
}

func TestUnicodeEndToEnd(t *testing.T) {
	tr := xmltree.MustParse("<книга><著者><מחבר/></著者></книга>")
	p := xpath.MustParse("/книга//מחבר")
	res := Eval(p, tr)
	if len(res) != 1 || res[0].Label() != "מחבר" {
		t.Fatalf("unicode evaluation failed: %v", res)
	}
	// And through a compiled Evaluator.
	if got := Compile(p).Eval(tr); len(got) != 1 {
		t.Fatalf("compiled unicode evaluation failed")
	}
}

func TestEvalInvariantUnderSiblingPermutation(t *testing.T) {
	// The model is unordered: permuting children anywhere must not change
	// which nodes (by identity) a pattern selects. Rebuilding a tree with
	// reversed child lists preserves neither pointers nor IDs, so compare
	// the multiset of result subtree codes instead.
	f := func(pseed, tseed int64) bool {
		prng := rand.New(rand.NewSource(pseed))
		trng := rand.New(rand.NewSource(tseed))
		p := pattern.Random(prng, pattern.RandomConfig{
			Size: prng.Intn(6) + 1, Labels: []string{"a", "b"},
			PWildcard: 0.3, PDescendant: 0.4, PBranch: 0.5,
		})
		tr := xmltree.Random(trng, xmltree.RandomConfig{
			Size: trng.Intn(15) + 1, Labels: []string{"a", "b", "c"},
		})
		rev := reverseChildren(tr)
		want := resultCodes(Eval(p, tr))
		got := resultCodes(Eval(p, rev))
		if len(want) != len(got) {
			return false
		}
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// reverseChildren rebuilds a tree with every child list reversed.
func reverseChildren(t *xmltree.Tree) *xmltree.Tree {
	out := xmltree.New(t.Root().Label())
	var walk func(src *xmltree.Node, dst *xmltree.Node)
	walk = func(src *xmltree.Node, dst *xmltree.Node) {
		cs := src.Children()
		for i := len(cs) - 1; i >= 0; i-- {
			walk(cs[i], out.AddChild(dst, cs[i].Label()))
		}
	}
	walk(t.Root(), out.Root())
	return out
}

func resultCodes(ns []*xmltree.Node) []string {
	out := make([]string, 0, len(ns))
	for _, n := range ns {
		out = append(out, xmltree.Code(n))
	}
	sort.Strings(out)
	return out
}
