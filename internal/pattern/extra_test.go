package pattern

import (
	"testing"

	"xmlconflict/internal/xmltree"
)

func TestModelInto(t *testing.T) {
	p := New("x")
	c := p.AddChild(p.Root(), Descendant, Wildcard)
	p.SetOutput(c)
	host := xmltree.MustParse("<r><a/></r>")
	anchor := host.Root().Children()[0]
	root := p.ModelInto(host, anchor, "zz")
	if root.Label() != "x" || host.Parents()[root] != anchor {
		t.Fatalf("ModelInto attached wrong: %s", host)
	}
	if host.Size() != 4 {
		t.Fatalf("size = %d", host.Size())
	}
	// The wildcard instantiated as the fresh label.
	if root.Children()[0].Label() != "zz" {
		t.Fatalf("wildcard not instantiated")
	}
}

func TestNodeParentAccessor(t *testing.T) {
	p := New("a")
	b := p.AddChild(p.Root(), Child, "b")
	if b.Parent() != p.Root() || p.Root().Parent() != nil {
		t.Fatalf("Parent accessor wrong")
	}
}

func TestAxisString(t *testing.T) {
	if Child.String() != "/" || Descendant.String() != "//" {
		t.Fatalf("axis strings wrong")
	}
}

func TestSpineSingleNode(t *testing.T) {
	p := New("a")
	s := p.Spine()
	if len(s) != 1 || s[0] != p.Root() {
		t.Fatalf("Spine of a single node: %v", s)
	}
}
