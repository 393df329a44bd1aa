package xmltree

import (
	"math/rand"
	"testing"
)

// pathTo names the node with the given identity by its root path in t.
func pathTo(t *Tree, id int) Paths {
	path := rootPath(t, t.NodeByID(id))
	ps := Paths{Nodes: path, At: []int32{int32(len(path) - 1)}}
	for i := range path {
		ps.Parent = append(ps.Parent, int32(i-1))
	}
	return ps
}

// del returns the version of t without the node with the given identity,
// as a delete operation derives it.
func del(t *Tree, id int) *Tree {
	nt, err := t.Deleted(pathTo(t, id))
	if err != nil {
		panic(err)
	}
	return nt
}

// graft returns the version of t with a copy of x under the node with
// the given identity, as an insert operation derives it.
func graft(t *Tree, id int, x string) *Tree {
	return t.Inserted(pathTo(t, id), MustParse(x))
}

func TestIsomorphicDerivedHandBuilt(t *testing.T) {
	cases := []struct {
		name string
		pre  string
		a, b func(*Tree) *Tree
	}{
		{
			// Figure 3's situation at sibling level: the orders delete
			// different ones of two isomorphic siblings. Identities do not
			// pair up, the codes do.
			name: "delete one of two isomorphic siblings",
			pre:  "<r><g><b/></g><g><b/></g></r>",
			a:    func(t *Tree) *Tree { return del(t, 1) },
			b:    func(t *Tree) *Tree { return del(t, 3) },
		},
		{
			// Each order changes a different one of two isomorphic
			// siblings: every pair differs by identity, but the cross
			// matching succeeds.
			name: "cross-matched pairs",
			pre:  "<r><g/><g/><h/></r>",
			a:    func(t *Tree) *Tree { return graft(t, 1, "<x/>") },
			b:    func(t *Tree) *Tree { return graft(t, 2, "<x/>") },
		},
		{
			// Equal fresh identities, different fragments: x lands at the
			// first fresh identity in one order, y{z} in the other.
			name: "fresh identities collide",
			pre:  "<r><k/></r>",
			a:    func(t *Tree) *Tree { return graft(graft(t, 0, "<x/>"), 0, "<y><z/></y>") },
			b:    func(t *Tree) *Tree { return graft(graft(t, 0, "<y><z/></y>"), 0, "<x/>") },
		},
		{
			name: "fresh identities collide, not isomorphic",
			pre:  "<r><k/></r>",
			a:    func(t *Tree) *Tree { return graft(graft(t, 0, "<x/>"), 0, "<y><z/></y>") },
			b:    func(t *Tree) *Tree { return graft(graft(t, 0, "<y><z/></y>"), 0, "<y/>") },
		},
		{
			name: "same change deep down",
			pre:  "<r><s><b><i/></b><b/></s><s/></r>",
			a:    func(t *Tree) *Tree { return del(graft(t, 2, "<n/>"), 3) },
			b:    func(t *Tree) *Tree { return graft(del(t, 3), 2, "<n/>") },
		},
		{
			name: "different changes deep down",
			pre:  "<r><s><b><i/></b><b/></s><s/></r>",
			a:    func(t *Tree) *Tree { return graft(t, 2, "<n/>") },
			b:    func(t *Tree) *Tree { return graft(t, 4, "<n/>") },
		},
		{
			name: "one side untouched",
			pre:  "<r><s><b/></s></r>",
			a:    func(t *Tree) *Tree { return t },
			b:    func(t *Tree) *Tree { return del(t, 2) },
		},
		{
			name: "delete and reinsert an isomorphic copy",
			pre:  "<r><s><b/></s><t/></r>",
			a:    func(t *Tree) *Tree { return del(t, 1) },
			b:    func(t *Tree) *Tree { return graft(del(t, 1), 0, "<s><b/></s>") },
		},
	}
	for _, c := range cases {
		pre := MustParse(c.pre)
		a, b := c.a(pre), c.b(pre)
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
	for _, derive := range []func(*Tree) *Tree{
		func(t *Tree) *Tree { return del(t, 2) },
		func(t *Tree) *Tree { return graft(t, 3, "<x/>") },
		func(t *Tree) *Tree { return graft(t, 1, "<y/>") },
	} {
		a, b := derive(pre), graft(pre, 1, "<y/>")
		if got, want := IsomorphicDerived(pre, a, b), Isomorphic(a, b); got != want {
			t.Errorf("IsomorphicDerived = %v, Isomorphic = %v (a = %s, b = %s)", got, want, a, b)
		}
	}
}

func TestIsomorphicDerivedRandom(t *testing.T) {
	// Random path-copying edits on two derivations of one pre-state, checked
	// against full isomorphism. Small alphabets keep the two sides
	// isomorphic often enough to test both answers.
	rng := rand.New(rand.NewSource(23))
	same := 0
	for i := 0; i < 4000; i++ {
		pre := Random(rng, RandomConfig{Size: 1 + rng.Intn(10), Labels: []string{"a", "b"}})
		derive := func() *Tree {
			d := pre
			for k := rng.Intn(3); k > 0; k-- {
				nodes := d.Nodes()
				n := nodes[rng.Intn(len(nodes))]
				if n != d.Root() && rng.Intn(2) == 0 {
					d = del(d, n.ID())
				} else {
					d = graft(d, n.ID(), []string{"<a/>", "<b/>", "<a><b/></a>"}[rng.Intn(3)])
				}
			}
			return d
		}
		a := derive()
		b := derive()
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
