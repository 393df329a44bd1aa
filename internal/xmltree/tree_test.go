package xmltree

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSingleNode(t *testing.T) {
	tr := New("a")
	if tr.Root().Label() != "a" {
		t.Fatalf("root label = %q, want a", tr.Root().Label())
	}
	if tr.Size() != 1 {
		t.Fatalf("size = %d, want 1", tr.Size())
	}
	if p, ok := tr.Parents()[tr.Root()]; !ok || p != nil {
		t.Fatalf("root has a parent")
	}
	if got := len(rootPath(tr, tr.Root())); got != 1 {
		t.Fatalf("root depth = %d", got-1)
	}
}

// rootPath returns the nodes from the root to n, inclusive, read off the
// tree's parent index.
func rootPath(tr *Tree, n *Node) []*Node {
	parents := tr.Parents()
	var rev []*Node
	for m := n; m != nil; m = parents[m] {
		rev = append(rev, m)
	}
	slices.Reverse(rev)
	return rev
}

// isAncestor reports whether a is a proper ancestor of n in tr.
func isAncestor(tr *Tree, a, n *Node) bool {
	path := rootPath(tr, n)
	return slices.Contains(path[:len(path)-1], a)
}

func TestAddChildStructure(t *testing.T) {
	tr := New("a")
	b := tr.AddChild(tr.Root(), "b")
	c := tr.AddChild(b, "c")
	if got := tr.Size(); got != 3 {
		t.Fatalf("size = %d, want 3", got)
	}
	parents := tr.Parents()
	if parents[c] != b || parents[b] != tr.Root() {
		t.Fatalf("parent links wrong")
	}
	if !isAncestor(tr, tr.Root(), c) || !isAncestor(tr, b, c) {
		t.Fatalf("ancestor relation wrong")
	}
	if isAncestor(tr, c, b) || isAncestor(tr, c, c) {
		t.Fatalf("ancestor relation must be proper and directed")
	}
	path := rootPath(tr, c)
	if got := len(path) - 1; got != 2 {
		t.Fatalf("depth = %d, want 2", got)
	}
	want := []string{"a", "b", "c"}
	var got []string
	for _, n := range path {
		got = append(got, n.Label())
	}
	if len(got) != len(want) {
		t.Fatalf("path = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("path = %v, want %v", got, want)
		}
	}
}

func TestIDsAreUniqueAndStable(t *testing.T) {
	tr := New("a")
	b := tr.AddChild(tr.Root(), "b")
	c := tr.AddChild(tr.Root(), "c")
	seen := map[int]bool{}
	for _, n := range tr.Nodes() {
		if seen[n.ID()] {
			t.Fatalf("duplicate id %d", n.ID())
		}
		seen[n.ID()] = true
	}
	cl := tr.Clone()
	if cl.NodeByID(b.ID()) == nil || cl.NodeByID(c.ID()) == nil {
		t.Fatalf("clone did not preserve ids")
	}
	// New nodes in the clone do not collide with the original's ids.
	d := cl.AddChild(cl.Root(), "d")
	if tr.NodeByID(d.ID()) != nil {
		t.Fatalf("fresh id %d collides with original tree", d.ID())
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := New("a")
	tr.AddChild(tr.Root(), "b")
	cl := tr.Clone()
	cl.AddChild(cl.Root(), "c")
	if tr.Size() != 2 {
		t.Fatalf("mutating the clone changed the original (size %d)", tr.Size())
	}
	if cl.Size() != 3 {
		t.Fatalf("clone size = %d, want 3", cl.Size())
	}
}

func TestGraftAssignsFreshIDs(t *testing.T) {
	tr := New("a")
	x := New("x")
	x.AddChild(x.Root(), "y")
	r1 := tr.Graft(tr.Root(), x)
	r2 := tr.Graft(tr.Root(), x)
	if r1.ID() == r2.ID() {
		t.Fatalf("grafts share ids")
	}
	if tr.Size() != 5 {
		t.Fatalf("size = %d, want 5", tr.Size())
	}
	if r1.Label() != "x" || len(r1.Children()) != 1 || r1.Children()[0].Label() != "y" {
		t.Fatalf("graft shape wrong: %s", tr)
	}
	// Graft copies: mutating x afterwards must not affect tr.
	x.AddChild(x.Root(), "z")
	if tr.Size() != 5 {
		t.Fatalf("graft aliased the source tree")
	}
}

func TestDeleteSubtree(t *testing.T) {
	tr := New("a")
	b := tr.AddChild(tr.Root(), "b")
	tr.AddChild(b, "c")
	d := tr.AddChild(tr.Root(), "d")
	if err := tr.DeleteSubtree(b); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 2 {
		t.Fatalf("size = %d, want 2", tr.Size())
	}
	if _, ok := tr.Parents()[d]; !ok {
		t.Fatalf("sibling was deleted")
	}
	if _, ok := tr.Parents()[b]; ok {
		t.Fatalf("deleted node still contained")
	}
	if err := tr.DeleteSubtree(tr.Root()); err == nil {
		t.Fatalf("deleting the root must fail")
	}
	if err := tr.DeleteSubtree(b); err == nil {
		t.Fatalf("deleting a node outside the tree must fail")
	}
}

func TestDetachAttach(t *testing.T) {
	tr := New("a")
	b := tr.AddChild(tr.Root(), "b")
	c := tr.AddChild(b, "c")
	if err := tr.Detach(c); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 2 {
		t.Fatalf("detach failed")
	}
	if err := tr.Attach(tr.Root(), c); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 3 || tr.Parents()[c] != tr.Root() {
		t.Fatalf("attach failed")
	}
	if err := tr.Attach(tr.Root(), b); err == nil {
		t.Fatalf("attaching an attached node must fail")
	}
}

// TestInsertedCopiesOnlyRootPaths: a version shares every node off the
// copied paths, so "modified" is "not the input's node": the change
// point and its ancestors, and nothing else.
func TestInsertedCopiesOnlyRootPaths(t *testing.T) {
	tr := New("a")
	b := tr.AddChild(tr.Root(), "b")
	c := tr.AddChild(b, "c")
	d := tr.AddChild(tr.Root(), "d")
	before := tr.XML()
	ps := Paths{Nodes: []*Node{tr.Root(), b, c}, Parent: []int32{-1, 0, 1}, At: []int32{2}}
	nt := tr.Inserted(ps, MustParse("<x/>"))
	if tr.XML() != before || tr.Size() != 4 {
		t.Fatalf("Inserted changed its input: %s", tr.XML())
	}
	if nt.Size() != 5 || nt.XML() != "<a><b><c><x/></c></b><d/></a>" {
		t.Fatalf("Inserted result = %s", nt.XML())
	}
	byID := map[int]*Node{}
	for _, n := range nt.Nodes() {
		byID[n.ID()] = n
	}
	if byID[c.ID()] == c || byID[b.ID()] == b || nt.Root() == tr.Root() {
		t.Fatalf("change point or an ancestor is shared with the input")
	}
	if byID[d.ID()] != d {
		t.Fatalf("sibling off the path was copied")
	}
	// No point: every node is the input's.
	same := tr.Inserted(Paths{}, MustParse("<x/>"))
	for _, n := range same.Nodes() {
		if tr.NodeByID(n.ID()) != n {
			t.Fatalf("node %d copied by an empty edit", n.ID())
		}
	}
}

func TestHeight(t *testing.T) {
	tr := New("a")
	if tr.Height() != 1 {
		t.Fatalf("height = %d", tr.Height())
	}
	b := tr.AddChild(tr.Root(), "b")
	tr.AddChild(b, "c")
	tr.AddChild(tr.Root(), "d")
	if tr.Height() != 3 {
		t.Fatalf("height = %d, want 3", tr.Height())
	}
}

func TestIsomorphicBasic(t *testing.T) {
	a := MustParse("<a><b/><c><d/></c></a>")
	b := MustParse("<a><c><d/></c><b/></a>") // permuted siblings
	c := MustParse("<a><b/><c><e/></c></a>")
	if !Isomorphic(a, b) {
		t.Fatalf("sibling permutation must be isomorphic")
	}
	if Isomorphic(a, c) {
		t.Fatalf("different labels must not be isomorphic")
	}
	if Isomorphic(a, MustParse("<a><b/></a>")) {
		t.Fatalf("different sizes must not be isomorphic")
	}
}

func TestIsomorphicMultiplicity(t *testing.T) {
	a := MustParse("<a><b/><b/></a>")
	b := MustParse("<a><b/></a>")
	if Isomorphic(a, b) {
		t.Fatalf("child multiplicity must matter for isomorphism")
	}
	c := MustParse("<a><b/><b/></a>")
	if !Isomorphic(a, c) {
		t.Fatalf("equal multiplicity must be isomorphic")
	}
}

func TestCodeEscaping(t *testing.T) {
	a := New("x(")
	b := New("x")
	bb := b.AddChild(b.Root(), "weird")
	_ = bb
	if Code(a.Root()) == Code(b.Root()) {
		t.Fatalf("labels with parentheses must not collide")
	}
	// A label that embeds a full code string must not equal a structure.
	tricky := New("b(c)")
	plain := New("b")
	plain.AddChild(plain.Root(), "c")
	if Code(tricky.Root()) == Code(plain.Root()) {
		t.Fatalf("escaping failed: %q", Code(tricky.Root()))
	}
}

func TestSameNodeSet(t *testing.T) {
	tr := New("a")
	b := tr.AddChild(tr.Root(), "b")
	c := tr.AddChild(tr.Root(), "c")
	if !SameNodeSet([]*Node{b, c}, []*Node{c, b}) {
		t.Fatalf("order must not matter")
	}
	if !SameNodeSet([]*Node{b, b, c}, []*Node{c, b}) {
		t.Fatalf("duplicates must not matter")
	}
	if SameNodeSet([]*Node{b}, []*Node{c}) {
		t.Fatalf("different nodes compared equal")
	}
	if SameNodeSet([]*Node{b}, []*Node{b, c}) {
		t.Fatalf("subset compared equal")
	}
	if !SameNodeSet(nil, nil) {
		t.Fatalf("empty sets must be equal")
	}
}

func TestSameIsoClasses(t *testing.T) {
	tr := MustParse("<a><b><x/></b><b><x/></b><c/></a>")
	kids := tr.Root().Children()
	var b1, b2, c *Node
	for _, k := range kids {
		switch k.Label() {
		case "b":
			if b1 == nil {
				b1 = k
			} else {
				b2 = k
			}
		case "c":
			c = k
		}
	}
	// The two b subtrees are isomorphic: dropping one keeps the class set.
	if !SameIsoClasses([]*Node{b1, b2, c}, []*Node{b1, c}) {
		t.Fatalf("iso-class sets should ignore multiplicity")
	}
	if SameIsoClasses([]*Node{b1, c}, []*Node{b1}) {
		t.Fatalf("missing class not detected")
	}
}

func TestParseSerializeRoundTrip(t *testing.T) {
	cases := []string{
		"<a/>",
		"<a><b/></a>",
		"<a><b><c/></b><d/></a>",
		"<inventory><book><quantity/></book><book/></inventory>",
	}
	for _, src := range cases {
		tr, err := ParseString(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		back, err := ParseString(tr.XML())
		if err != nil {
			t.Fatalf("reparse %s: %v", tr.XML(), err)
		}
		if !Isomorphic(tr, back) {
			t.Fatalf("round trip changed %s into %s", src, back.XML())
		}
	}
}

func TestParseDiscardsTextAndAttrs(t *testing.T) {
	tr, err := ParseString(`<a id="1">hello<b x="2">world</b><!--note--></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 2 {
		t.Fatalf("size = %d, want 2 (text/attrs/comments discarded)", tr.Size())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"<a>",
		"<a></b>",
		"<a/><b/>",
	}
	for _, src := range bad {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", src)
		}
	}
}

func TestWriteIndent(t *testing.T) {
	tr := MustParse("<a><b><c/></b></a>")
	var sb strings.Builder
	if err := tr.Write(&sb, true); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "  <b>") || !strings.Contains(out, "    <c/>") {
		t.Fatalf("indented output unexpected:\n%s", out)
	}
}

func TestXMLNameEscaping(t *testing.T) {
	tr := New("zfresh0_1")
	if _, err := ParseString(tr.XML()); err != nil {
		t.Fatalf("serialized odd label unparseable: %v (%s)", err, tr.XML())
	}
	weird := New("0bad label")
	if _, err := ParseString(weird.XML()); err != nil {
		t.Fatalf("escaped label unparseable: %v (%s)", err, weird.XML())
	}
}

func TestRandomDeterministic(t *testing.T) {
	cfg := RandomConfig{Size: 40, Labels: []string{"a", "b", "c"}, MaxFanout: 3, Skew: 0.3}
	t1 := Random(rand.New(rand.NewSource(7)), cfg)
	t2 := Random(rand.New(rand.NewSource(7)), cfg)
	if t1.String() != t2.String() {
		t.Fatalf("same seed produced different trees")
	}
	if t1.Size() != 40 {
		t.Fatalf("size = %d, want 40", t1.Size())
	}
}

func TestRandomRespectsFanout(t *testing.T) {
	tr := Random(rand.New(rand.NewSource(3)), RandomConfig{Size: 60, Labels: []string{"a"}, MaxFanout: 2})
	for _, n := range tr.Nodes() {
		if len(n.Children()) > 2 {
			t.Fatalf("fanout %d exceeds limit", len(n.Children()))
		}
	}
}

func TestIsomorphismPropertyPermutedClone(t *testing.T) {
	// Property: any tree is isomorphic to a clone, and to a clone with a
	// relabeled node it is not (when the label actually changes).
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := Random(rng, RandomConfig{Size: int(size%30) + 2, Labels: []string{"a", "b"}})
		cl := tr.Clone()
		if !Isomorphic(tr, cl) {
			return false
		}
		nodes := cl.Nodes()
		n := nodes[rng.Intn(len(nodes))]
		old := n.Label()
		cl.Relabel(n, "zz")
		iso := Isomorphic(tr, cl)
		if old == "zz" {
			return iso
		}
		return !iso
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIsoReflexiveSymmetric(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a := Random(rand.New(rand.NewSource(s1)), RandomConfig{Size: 12, Labels: []string{"a", "b"}})
		b := Random(rand.New(rand.NewSource(s2)), RandomConfig{Size: 12, Labels: []string{"a", "b"}})
		if !Isomorphic(a, a) || !Isomorphic(b, b) {
			return false
		}
		return Isomorphic(a, b) == Isomorphic(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCodeMatchesIsomorphism(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a := Random(rand.New(rand.NewSource(s1)), RandomConfig{Size: 8, Labels: []string{"a", "b"}})
		b := Random(rand.New(rand.NewSource(s2)), RandomConfig{Size: 8, Labels: []string{"a", "b"}})
		return (Code(a.Root()) == Code(b.Root())) == Isomorphic(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
