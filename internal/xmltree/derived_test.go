package xmltree

import (
	"math/rand"
	"testing"
)

// derive returns a clone of pre with cleared modified flags, the way the
// commute check starts each application order.
func derive(pre *Tree) *Tree {
	c := pre.Clone()
	c.ClearModified()
	return c
}

// del deletes the node with the given identity and marks its parent, as
// a delete operation does.
func del(t *Tree, id int) {
	n := t.NodeByID(id)
	p := n.Parent()
	if err := t.DeleteSubtree(n); err != nil {
		panic(err)
	}
	t.MarkModified(p)
}

// graft inserts a copy of x under the node with the given identity and
// marks it, as an insert operation does.
func graft(t *Tree, id int, x string) {
	n := t.NodeByID(id)
	t.Graft(n, MustParse(x))
	t.MarkModified(n)
}

func TestIsomorphicDerivedHandBuilt(t *testing.T) {
	cases := []struct {
		name string
		pre  string
		a, b func(*Tree)
	}{
		{
			// Figure 3's situation at sibling level: the orders delete
			// different ones of two isomorphic siblings. Identities do not
			// pair up, the codes do.
			name: "delete one of two isomorphic siblings",
			pre:  "<r><g><b/></g><g><b/></g></r>",
			a:    func(t *Tree) { del(t, 1) },
			b:    func(t *Tree) { del(t, 3) },
		},
		{
			// Each order changes a different one of two isomorphic
			// siblings: every pair differs by identity, but the cross
			// matching succeeds.
			name: "cross-matched pairs",
			pre:  "<r><g/><g/><h/></r>",
			a:    func(t *Tree) { graft(t, 1, "<x/>") },
			b:    func(t *Tree) { graft(t, 2, "<x/>") },
		},
		{
			// Equal fresh identities, different fragments: x lands at the
			// first fresh identity in one order, y{z} in the other.
			name: "fresh identities collide",
			pre:  "<r><k/></r>",
			a:    func(t *Tree) { graft(t, 0, "<x/>"); graft(t, 0, "<y><z/></y>") },
			b:    func(t *Tree) { graft(t, 0, "<y><z/></y>"); graft(t, 0, "<x/>") },
		},
		{
			name: "fresh identities collide, not isomorphic",
			pre:  "<r><k/></r>",
			a:    func(t *Tree) { graft(t, 0, "<x/>"); graft(t, 0, "<y><z/></y>") },
			b:    func(t *Tree) { graft(t, 0, "<y><z/></y>"); graft(t, 0, "<y/>") },
		},
		{
			name: "same change deep down",
			pre:  "<r><s><b><i/></b><b/></s><s/></r>",
			a:    func(t *Tree) { graft(t, 2, "<n/>"); del(t, 3) },
			b:    func(t *Tree) { del(t, 3); graft(t, 2, "<n/>") },
		},
		{
			name: "different changes deep down",
			pre:  "<r><s><b><i/></b><b/></s><s/></r>",
			a:    func(t *Tree) { graft(t, 2, "<n/>") },
			b:    func(t *Tree) { graft(t, 4, "<n/>") },
		},
		{
			name: "one side untouched",
			pre:  "<r><s><b/></s></r>",
			a:    func(t *Tree) {},
			b:    func(t *Tree) { del(t, 2) },
		},
		{
			name: "delete and reinsert an isomorphic copy",
			pre:  "<r><s><b/></s><t/></r>",
			a:    func(t *Tree) { del(t, 1) },
			b:    func(t *Tree) { del(t, 1); graft(t, 0, "<s><b/></s>") },
		},
	}
	for _, c := range cases {
		pre := MustParse(c.pre)
		a, b := derive(pre), derive(pre)
		c.a(a)
		c.b(b)
		if got, want := IsomorphicDerived(pre, a, b), Isomorphic(a, b); got != want {
			t.Errorf("%s: IsomorphicDerived = %v, Isomorphic = %v (a = %s, b = %s)", c.name, got, want, a, b)
		}
	}
}

func TestIsomorphicDerivedUnorderedChildren(t *testing.T) {
	// Attach can leave identities out of ascending order in a child list;
	// the merge then misses some matches, which must cost only speed.
	pre := MustParse("<r><a><x/></a><b/></r>")
	n := pre.NodeByID(1) // a
	if err := pre.Detach(n); err != nil {
		t.Fatal(err)
	}
	if err := pre.Attach(pre.Root(), n); err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*Tree){
		func(t *Tree) { del(t, 2) },
		func(t *Tree) { graft(t, 3, "<x/>") },
		func(t *Tree) { graft(t, 1, "<y/>") },
	} {
		a, b := derive(pre), derive(pre)
		mutate(a)
		graft(b, 1, "<y/>")
		if got, want := IsomorphicDerived(pre, a, b), Isomorphic(a, b); got != want {
			t.Errorf("IsomorphicDerived = %v, Isomorphic = %v (a = %s, b = %s)", got, want, a, b)
		}
	}
}

func TestIsomorphicDerivedRandom(t *testing.T) {
	// Random marked edits on two derivations of one pre-state, checked
	// against full isomorphism. Small alphabets keep the two sides
	// isomorphic often enough to test both answers.
	rng := rand.New(rand.NewSource(23))
	same := 0
	for i := 0; i < 4000; i++ {
		pre := Random(rng, RandomConfig{Size: 1 + rng.Intn(10), Labels: []string{"a", "b"}})
		a, b := derive(pre), derive(pre)
		for _, d := range []*Tree{a, b} {
			for k := rng.Intn(3); k > 0; k-- {
				nodes := d.Nodes()
				n := nodes[rng.Intn(len(nodes))]
				if n != d.Root() && rng.Intn(2) == 0 {
					del(d, n.ID())
				} else {
					graft(d, n.ID(), []string{"<a/>", "<b/>", "<a><b/></a>"}[rng.Intn(3)])
				}
			}
		}
		want := Isomorphic(a, b)
		if got := IsomorphicDerived(pre, a, b); got != want {
			t.Fatalf("case %d: IsomorphicDerived = %v, Isomorphic = %v\npre = %s\na = %s\nb = %s", i, got, want, pre, a, b)
		}
		if want {
			same++
		}
	}
	if same < 400 || same > 3600 {
		t.Fatalf("weak sample: %d of 4000 derivation pairs isomorphic", same)
	}
}
