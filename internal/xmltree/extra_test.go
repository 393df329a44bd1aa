package xmltree

import "testing"

func TestCloneSubtree(t *testing.T) {
	tr := MustParse("<a><b><c/></b><d/></a>")
	var b *Node
	tr.Walk(func(n *Node) bool {
		if n.Label() == "b" {
			b = n
		}
		return true
	})
	sub := tr.CloneSubtree(b)
	if sub.Size() != 2 || sub.Root().Label() != "b" {
		t.Fatalf("CloneSubtree = %s", sub)
	}
	// IDs preserved from the source.
	if sub.Root().ID() != b.ID() {
		t.Fatalf("id changed")
	}
	// Independent of the original.
	sub.AddChild(sub.Root(), "x")
	if tr.Size() != 4 {
		t.Fatalf("original mutated")
	}
}

func TestLabels(t *testing.T) {
	tr := MustParse("<a><b/><b/><c/></a>")
	l := tr.Labels()
	if len(l) != 3 || !l["a"] || !l["b"] || !l["c"] {
		t.Fatalf("Labels = %v", l)
	}
}

func TestNodeByIDMiss(t *testing.T) {
	tr := MustParse("<a/>")
	if tr.NodeByID(999) != nil {
		t.Fatalf("phantom node")
	}
	if tr.NodeByID(tr.Root().ID()) != tr.Root() {
		t.Fatalf("root not found by id")
	}
}

func TestSortByID(t *testing.T) {
	tr := New("a")
	b := tr.AddChild(tr.Root(), "b")
	c := tr.AddChild(tr.Root(), "c")
	sorted := SortByID([]*Node{c, tr.Root(), b})
	if sorted[0] != tr.Root() || sorted[1] != b || sorted[2] != c {
		t.Fatalf("SortByID order wrong")
	}
}

func TestParentsForeignNode(t *testing.T) {
	a := MustParse("<a><b/></a>")
	other := MustParse("<a><b/></a>")
	if _, ok := a.Parents()[other.Root()]; ok {
		t.Fatalf("foreign node contained")
	}
	if _, ok := a.Parents()[a.Root().Children()[0]]; !ok {
		t.Fatalf("own child not contained")
	}
}

func TestStringCompact(t *testing.T) {
	tr := MustParse("<a><c/><b/></a>")
	// String sorts children canonically.
	if got := tr.String(); got != "<a><b/><c/></a>" {
		t.Fatalf("String = %q", got)
	}
}

func TestSafeLabelRoundTrip(t *testing.T) {
	safe := []string{"a", "_x", "A-1.b", "root", "n-cafue9"}
	unsafe := []string{"", "café", "1x", "a b", "-a", ".a", "a:b", "日本"}
	for _, l := range safe {
		if !SafeLabel(l) {
			t.Errorf("SafeLabel(%q) = false, want true", l)
		}
		// The guarantee SafeLabel makes: serialization round-trips.
		back, err := ParseString(New(l).XML())
		if err != nil || back.Root().Label() != l {
			t.Errorf("round trip of %q: got %v, %v", l, back, err)
		}
	}
	for _, l := range unsafe {
		if SafeLabel(l) {
			t.Errorf("SafeLabel(%q) = true, want false", l)
		}
	}
}

func TestUnsafeLabel(t *testing.T) {
	tr := MustParse("<a><b/><c/></a>")
	if l, bad := tr.UnsafeLabel(); bad {
		t.Fatalf("all-safe tree flagged label %q", l)
	}
	tr.AddChild(tr.Root(), "café")
	l, bad := tr.UnsafeLabel()
	if !bad || l != "café" {
		t.Fatalf("UnsafeLabel = %q, %v; want café, true", l, bad)
	}
}
