package ops

import (
	"math/rand"
	"testing"

	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// randomUpdate draws an insert or a delete over a small alphabet, so the
// two updates of a pair often touch the same nodes.
func randomUpdate(rng *rand.Rand) Update {
	p := pattern.Random(rng, pattern.RandomConfig{
		Size: 1 + rng.Intn(4), Labels: []string{"a", "b", "c"},
		PWildcard: 0.3, PDescendant: 0.3, PBranch: 0.3,
	})
	if rng.Intn(2) == 0 {
		return Insert{P: p, X: xmltree.Random(rng, xmltree.RandomConfig{
			Size: 1 + rng.Intn(3), Labels: []string{"a", "b", "c"},
		})}
	}
	if p.Output() == p.Root() {
		p.SetOutput(p.AddChild(p.Root(), pattern.Child, []string{"a", "b", "c"}[rng.Intn(3)]))
	}
	return Delete{P: p}
}

// bothOrders applies u1 then u2, and u2 then u1, to t, as CommuteWitness
// does.
func bothOrders(t *testing.T, u1, u2 Update, tr *xmltree.Tree) (a, b *xmltree.Tree) {
	t.Helper()
	a, err := applyBoth(u1, u2, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err = applyBoth(u2, u1, tr)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestCommuteWitnessMatchesIsomorphism checks the modified-path commute
// check against full isomorphism of the two application orders on random
// insert/delete pairs. Two inserts into one tree draw the same fresh
// identities in the two orders, so colliding fresh identities are common.
func TestCommuteWitnessMatchesIsomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	noncommuting, collided := 0, 0
	for i := 0; i < 12000; i++ {
		tr := xmltree.Random(rng, xmltree.RandomConfig{
			Size: 1 + rng.Intn(12), Labels: []string{"a", "b", "c"}, Skew: rng.Float64() * 0.5,
		})
		u1, u2 := randomUpdate(rng), randomUpdate(rng)
		a, b := bothOrders(t, u1, u2, tr)
		want := !xmltree.Isomorphic(a, b)
		got, err := CommuteWitness(u1, u2, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("pair %d: CommuteWitness = %v, full isomorphism says %v\nt = %s\nu1 = %s %s\nu2 = %s %s\nu1·u2 = %s\nu2·u1 = %s",
				i, got, want, tr, u1.Kind(), u1.Pattern(), u2.Kind(), u2.Pattern(), a, b)
		}
		if want {
			noncommuting++
		}
		if a.Size() > tr.Size() && b.Size() > tr.Size() {
			collided++ // both orders grafted fresh nodes from the same next identity
		}
	}
	if noncommuting < 200 || collided < 1000 {
		t.Fatalf("weak sample: %d non-commuting pairs, %d with fresh nodes on both sides", noncommuting, collided)
	}
}

func TestCommuteWitnessFreshIdentitiesNeverCancel(t *testing.T) {
	// Inserts of different-sized fragments at one point: u1·u2 puts x at
	// the first fresh identity and y{z} after it, u2·u1 the reverse. Equal
	// fresh identities name different subtrees; cancelling them would
	// leave y{z} against x and report a false non-commutation.
	tr := xmltree.MustParse("<r><a/></r>")
	i1 := Insert{P: xpath.MustParse("/r"), X: xmltree.MustParse("<x/>")}
	i2 := Insert{P: xpath.MustParse("/r"), X: xmltree.MustParse("<y><z/></y>")}
	if diff, err := CommuteWitness(i1, i2, tr); err != nil || diff {
		t.Fatalf("inserts at one point must commute: diff=%v err=%v", diff, err)
	}
	// The same fragments one level down, next to untouched siblings.
	tr = xmltree.MustParse("<r><a><k/></a><b/></r>")
	i1 = Insert{P: xpath.MustParse("/r/a"), X: xmltree.MustParse("<x/>")}
	i2 = Insert{P: xpath.MustParse("/r/a"), X: xmltree.MustParse("<y><z/></y>")}
	if diff, err := CommuteWitness(i1, i2, tr); err != nil || diff {
		t.Fatalf("inserts at one nested point must commute: diff=%v err=%v", diff, err)
	}
	// Same fresh identity, same size, different content: u2 sees u1's x.
	tr = xmltree.MustParse("<r/>")
	i1 = Insert{P: xpath.MustParse("/r"), X: xmltree.MustParse("<x/>")}
	i2 = Insert{P: xpath.MustParse("/r/x"), X: xmltree.MustParse("<y/>")}
	if diff, err := CommuteWitness(i1, i2, tr); err != nil || !diff {
		t.Fatalf("an insert below the other's fragment must not commute: diff=%v err=%v", diff, err)
	}
}

func TestCommuteWitnessFigure3(t *testing.T) {
	// Figure 3's document: two isomorphic gamma subtrees, one under delta.
	fig3 := "<alpha><delta><gamma><beta/></gamma></delta><gamma><beta/></gamma></alpha>"
	for _, c := range []struct {
		u1, u2 Update
		diff   bool
	}{
		// Deleting delta takes one of the two gammas with it; an insert
		// under the other gamma commutes with it.
		{Delete{P: xpath.MustParse("alpha/delta")}, Insert{P: xpath.MustParse("alpha/gamma"), X: xmltree.MustParse("<x/>")}, false},
		// So does an insert under every gamma: the gamma inside delta
		// goes in both orders, with or without its new child.
		{Delete{P: xpath.MustParse("alpha/delta")}, Insert{P: xpath.MustParse("//gamma"), X: xmltree.MustParse("<x/>")}, false},
		// Inserting a gamma into delta, then deleting delta, equals the
		// reverse: both orders end with the document minus delta.
		{Delete{P: xpath.MustParse("alpha/delta")}, Insert{P: xpath.MustParse("alpha/delta"), X: xmltree.MustParse("<gamma><beta/></gamma>")}, false},
		// Deleting the top-level gamma versus inserting a second one: the
		// delete removes the new gamma only if it runs second.
		{Delete{P: xpath.MustParse("alpha/gamma")}, Insert{P: xpath.MustParse("alpha"), X: xmltree.MustParse("<gamma><beta/></gamma>")}, true},
		// Deleting every beta commutes with deleting delta.
		{Delete{P: xpath.MustParse("//beta")}, Delete{P: xpath.MustParse("alpha/delta")}, false},
	} {
		tr := xmltree.MustParse(fig3)
		a, b := bothOrders(t, c.u1, c.u2, tr)
		diff, err := CommuteWitness(c.u1, c.u2, tr)
		if err != nil {
			t.Fatal(err)
		}
		if diff != c.diff || diff == xmltree.Isomorphic(a, b) {
			t.Errorf("%s %s vs %s %s: diff=%v, want %v (isomorphic=%v)",
				c.u1.Kind(), c.u1.Pattern(), c.u2.Kind(), c.u2.Pattern(), diff, c.diff, xmltree.Isomorphic(a, b))
		}
	}
}
