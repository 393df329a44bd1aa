package match

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

func TestCompiledEvalMatchesReference(t *testing.T) {
	f := func(pseed, tseed int64, psize, tsize uint8) bool {
		prng := rand.New(rand.NewSource(pseed))
		trng := rand.New(rand.NewSource(tseed))
		p := pattern.Random(prng, pattern.RandomConfig{
			Size: int(psize%8) + 1, Labels: []string{"a", "b", "c"},
			PWildcard: 0.3, PDescendant: 0.4, PBranch: 0.5,
		})
		tr := xmltree.Random(trng, xmltree.RandomConfig{
			Size: int(tsize%40) + 1, Labels: []string{"a", "b", "c"},
		})
		// The reference is the enumerating oracle: Eval and Compile(p).Eval
		// share one kernel.
		ev := Compile(p)
		want := EvalNaive(p, tr)
		if !xmltree.SameNodeSet(ev.Eval(tr), want) {
			t.Logf("p=%s t=%s", p, tr)
			return false
		}
		if ev.Embeds(tr) != (len(want) > 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestCompiledEvalKnownCases(t *testing.T) {
	p := xpath.MustParse("a[.//c]/b[d][*//f]")
	ev := Compile(p)
	tr := xmltree.MustParse("<a><b><d/><e><f/></e></b><c/></a>")
	res := ev.Eval(tr)
	if len(res) != 1 || res[0].Label() != "b" {
		t.Fatalf("Figure 2 via compiled evaluator: %v", res)
	}
	if !ev.Embeds(tr) {
		t.Fatalf("Embeds false on a matching tree")
	}
	if Compile(xpath.MustParse("//zzz")).Embeds(tr) {
		t.Fatalf("Embeds true on a non-matching pattern")
	}
}

func TestCompiledReusableAcrossTrees(t *testing.T) {
	ev := Compile(xpath.MustParse("//b[c]"))
	t1 := xmltree.MustParse("<a><b><c/></b></a>")
	t2 := xmltree.MustParse("<a><b/></a>")
	if len(ev.Eval(t1)) != 1 {
		t.Fatalf("t1 wrong")
	}
	if len(ev.Eval(t2)) != 0 {
		t.Fatalf("t2 wrong")
	}
	// And again, to catch state leakage between evaluations.
	if len(ev.Eval(t1)) != 1 {
		t.Fatalf("t1 re-eval wrong")
	}
}

func TestCompiledLargePattern(t *testing.T) {
	// More than 64 pattern nodes exercises multi-word bitset rows.
	rng := rand.New(rand.NewSource(5))
	p := pattern.Random(rng, pattern.RandomConfig{
		Size: 100, Labels: []string{"a", "b"},
		PWildcard: 0.3, PDescendant: 0.4, PBranch: 0.4,
	})
	tr := xmltree.Random(rng, xmltree.RandomConfig{Size: 200, Labels: []string{"a", "b"}})
	ev := Compile(p)
	if !xmltree.SameNodeSet(ev.Eval(tr), Eval(p, tr)) {
		t.Fatalf("multi-word bitset mismatch")
	}
	// The pattern's own model must match, output included.
	m, out := p.Model("z")
	res := ev.Eval(m)
	found := false
	for _, n := range res {
		if n == out {
			found = true
		}
	}
	if !found {
		t.Fatalf("model output not selected")
	}
}
