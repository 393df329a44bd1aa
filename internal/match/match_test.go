package match

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// figure2Tree builds the tree of Figure 2: a root with children b and c,
// where b has children d and e, and e has a child f.
func figure2Tree() *xmltree.Tree {
	return xmltree.MustParse("<a><b><d/><e><f/></e></b><c/></a>")
}

func labelsOf(ns []*xmltree.Node) []string {
	var out []string
	for _, n := range ns {
		out = append(out, n.Label())
	}
	return out
}

func TestFigure2Embedding(t *testing.T) {
	// The paper's Figure 2: pattern a[.//c]/b[d][*//f] embeds into the tree
	// with output node b.
	p := xpath.MustParse("a[.//c]/b[d][*//f]")
	tr := figure2Tree()
	res := Eval(p, tr)
	if len(res) != 1 || res[0].Label() != "b" {
		t.Fatalf("Eval = %v, want the b node", labelsOf(res))
	}
}

func TestEvalRootOnly(t *testing.T) {
	tr := xmltree.MustParse("<a><b/></a>")
	res := Eval(xpath.MustParse("a"), tr)
	if len(res) != 1 || res[0] != tr.Root() {
		t.Fatalf("Eval(/a) = %v", labelsOf(res))
	}
	if got := Eval(xpath.MustParse("b"), tr); len(got) != 0 {
		t.Fatalf("root-preservation violated: %v", labelsOf(got))
	}
}

func TestEvalDescendant(t *testing.T) {
	tr := xmltree.MustParse("<r><a><a><b/></a></a><b/></r>")
	res := Eval(xpath.MustParse("//b"), tr)
	if len(res) != 2 {
		t.Fatalf("//b returned %d nodes, want 2", len(res))
	}
	res = Eval(xpath.MustParse("//a//b"), tr)
	if len(res) != 1 {
		t.Fatalf("//a//b returned %d nodes, want 1", len(res))
	}
	res = Eval(xpath.MustParse("//a/a"), tr)
	if len(res) != 1 {
		t.Fatalf("//a/a returned %d nodes, want 1", len(res))
	}
}

func TestEvalWildcard(t *testing.T) {
	tr := xmltree.MustParse("<r><x><A/></x><y><A/></y><A/></r>")
	res := Eval(xpath.MustParse("/*/A"), tr)
	if len(res) != 1 {
		// Only the direct A child of the root matches /*/A? No: /*/A means
		// root=*, child A. The root's A child matches; the grandchildren
		// do not (they are at depth 2).
		t.Fatalf("/*/A returned %d nodes, want 1", len(res))
	}
	res = Eval(xpath.MustParse("/*/*/A"), tr)
	if len(res) != 2 {
		t.Fatalf("/*/*/A returned %d nodes, want 2", len(res))
	}
}

func TestEvalPredicateFilters(t *testing.T) {
	tr := xmltree.MustParse("<inv><book><q/></book><book/></inv>")
	res := Eval(xpath.MustParse("inv/book[q]"), tr)
	if len(res) != 1 {
		t.Fatalf("book[q] returned %d, want 1", len(res))
	}
	res = Eval(xpath.MustParse("inv/book"), tr)
	if len(res) != 2 {
		t.Fatalf("book returned %d, want 2", len(res))
	}
}

func TestEvalOutputAboveLeaf(t *testing.T) {
	// Output node with descendants in the pattern: //book[.//q] selects
	// book nodes, constrained below.
	tr := xmltree.MustParse("<inv><book><info><q/></info></book><book><x/></book></inv>")
	p := xpath.MustParse("//book[.//q]")
	res := Eval(p, tr)
	if len(res) != 1 || res[0].Label() != "book" {
		t.Fatalf("//book[.//q] = %v", labelsOf(res))
	}
}

func TestEmbedsAtAndAnywhere(t *testing.T) {
	x := xmltree.MustParse("<x><c><d/></c></x>")
	cd := xpath.MustParse("c/d")
	if EmbedsAt(cd, x, x.Root()) {
		t.Fatalf("c/d must not embed at the x root (label mismatch)")
	}
	if !EmbedsAnywhere(cd, x) {
		t.Fatalf("c/d must embed somewhere in x")
	}
	xc := xpath.MustParse("x/c")
	if !EmbedsAt(xc, x, x.Root()) {
		t.Fatalf("x/c must embed at the root")
	}
	if !EmbedsAnywhere(xpath.MustParse("d"), x) {
		t.Fatalf("single-node d must embed anywhere")
	}
	if EmbedsAnywhere(xpath.MustParse("q"), x) {
		t.Fatalf("absent label must not embed")
	}
}

func TestModelAlwaysEmbeds(t *testing.T) {
	// Section 2.3: every pattern embeds into its model.
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := pattern.Random(rng, pattern.RandomConfig{
			Size: int(size%12) + 1, Labels: []string{"a", "b", "c"},
			PWildcard: 0.3, PDescendant: 0.4, PBranch: 0.4,
		})
		m, out := p.Model("zz")
		res := Eval(p, m)
		found := false
		for _, n := range res {
			if n == out {
				found = true
			}
		}
		return Embeds(p, m) && found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalMatchesNaiveOracle(t *testing.T) {
	// The evaluation kernel agrees with full embedding enumeration on
	// random pattern/tree pairs.
	f := func(pseed, tseed int64, psize, tsize uint8) bool {
		prng := rand.New(rand.NewSource(pseed))
		trng := rand.New(rand.NewSource(tseed))
		p := pattern.Random(prng, pattern.RandomConfig{
			Size: int(psize%6) + 1, Labels: []string{"a", "b"},
			PWildcard: 0.3, PDescendant: 0.4, PBranch: 0.5,
		})
		tr := xmltree.Random(trng, xmltree.RandomConfig{
			Size: int(tsize%12) + 1, Labels: []string{"a", "b", "c"},
		})
		fast := Eval(p, tr)
		slow := EvalNaive(p, tr)
		return xmltree.SameNodeSet(fast, slow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAllEmbeddingsAreValid(t *testing.T) {
	f := func(pseed, tseed int64) bool {
		prng := rand.New(rand.NewSource(pseed))
		trng := rand.New(rand.NewSource(tseed))
		p := pattern.Random(prng, pattern.RandomConfig{
			Size: 4, Labels: []string{"a", "b"},
			PWildcard: 0.3, PDescendant: 0.5, PBranch: 0.4,
		})
		tr := xmltree.Random(trng, xmltree.RandomConfig{
			Size: 10, Labels: []string{"a", "b"},
		})
		valid := true
		AllEmbeddings(p, tr, func(e Embedding) bool {
			if !e.Valid(p, tr) {
				valid = false
				return false
			}
			return true
		})
		return valid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestFindEmbeddingTargets(t *testing.T) {
	tr := xmltree.MustParse("<r><a><b/></a><a><b/><c/></a></r>")
	p := xpath.MustParse("r/a[c]/b")
	res := Eval(p, tr)
	if len(res) != 1 {
		t.Fatalf("setup: %v", labelsOf(res))
	}
	e := FindEmbedding(p, tr, res[0])
	if e == nil || !e.Valid(p, tr) || e[p.Output()] != res[0] {
		t.Fatalf("FindEmbedding failed")
	}
	// A non-result target yields nil.
	other := Eval(xpath.MustParse("r/a[b]/b"), tr)
	for _, n := range other {
		if n != res[0] {
			if FindEmbedding(p, tr, n) != nil {
				t.Fatalf("embedding found for non-result target")
			}
		}
	}
}

func TestFindEmbeddingAtMatchesOracle(t *testing.T) {
	// FindEmbeddingAt (polynomial) finds an embedding exactly when the
	// target is in Eval's result, and the embedding is valid.
	f := func(pseed, tseed int64, psize, tsize uint8) bool {
		prng := rand.New(rand.NewSource(pseed))
		trng := rand.New(rand.NewSource(tseed))
		p := pattern.Random(prng, pattern.RandomConfig{
			Size: int(psize%6) + 1, Labels: []string{"a", "b"},
			PWildcard: 0.3, PDescendant: 0.4, PBranch: 0.5,
		})
		tr := xmltree.Random(trng, xmltree.RandomConfig{
			Size: int(tsize%12) + 1, Labels: []string{"a", "b", "c"},
		})
		resSet := map[*xmltree.Node]bool{}
		for _, n := range Eval(p, tr) {
			resSet[n] = true
		}
		for _, n := range tr.Nodes() {
			e := FindEmbeddingAt(p, tr, n)
			if resSet[n] {
				if e == nil || !e.Valid(p, tr) || e[p.Output()] != n {
					return false
				}
			} else if e != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalLargeTreeSanity(t *testing.T) {
	// A deep chain exercises the descendant propagation.
	tr := xmltree.New("a")
	n := tr.Root()
	for i := 0; i < 500; i++ {
		n = tr.AddChild(n, "a")
	}
	tr.AddChild(n, "b")
	res := Eval(xpath.MustParse("//b"), tr)
	if len(res) != 1 {
		t.Fatalf("//b on chain: %d results", len(res))
	}
	res = Eval(xpath.MustParse("//a"), tr)
	if len(res) != 500 {
		t.Fatalf("//a on chain: %d results, want 500", len(res))
	}
	res = Eval(xpath.MustParse("//a[b]"), tr)
	if len(res) != 1 {
		t.Fatalf("//a[b] on chain: %d results, want 1", len(res))
	}
}
