package ops

import (
	"slices"
	"testing"

	"xmlconflict/internal/match"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// refApply is the in-place reference Apply replaced: it updates a deep
// Clone of t and marks every change point and its ancestors, returning
// the clone, the points' identities, and the marked identities that are
// still in the clone.
func refApply(u Update, t *xmltree.Tree) (*xmltree.Tree, []int, map[int]bool) {
	c := t.Clone()
	points := match.Eval(u.Pattern(), c)
	marked := map[int]bool{}
	mark := func(parents map[*xmltree.Node]*xmltree.Node, n *xmltree.Node) {
		for ; n != nil; n = parents[n] {
			marked[n.ID()] = true
		}
	}
	var ids []int
	for _, n := range points {
		ids = append(ids, n.ID())
		parents := c.Parents()
		switch u := u.(type) {
		case Insert:
			c.Graft(n, u.X)
			mark(parents, n)
		case Delete:
			p, in := parents[n]
			if !in {
				continue // gone with a deleted ancestor
			}
			if err := c.DeleteSubtree(n); err != nil {
				panic(err)
			}
			mark(parents, p)
		}
	}
	kept := map[int]bool{}
	for _, n := range c.Nodes() {
		if marked[n.ID()] {
			kept[n.ID()] = true
		}
	}
	return c, ids, kept
}

// nodeShape records a node as the checks see it: identity, label and
// child pointers.
type nodeShape struct {
	n        *xmltree.Node
	id       int
	label    string
	children []*xmltree.Node
}

func shapes(t *xmltree.Tree) []nodeShape {
	var out []nodeShape
	for _, n := range t.Nodes() {
		out = append(out, nodeShape{n, n.ID(), n.Label(), slices.Clone(n.Children())})
	}
	return out
}

func sortedIDs(t *xmltree.Tree) []int {
	var ids []int
	for _, n := range t.Nodes() {
		ids = append(ids, n.ID())
	}
	slices.Sort(ids)
	return ids
}

// FuzzApply checks the path-copying Apply against the in-place
// reference on small decoded trees, patterns and payloads: (a) the input
// is unchanged, node for node; (b) the result equals the reference in
// canonical bytes and identities; (c) the result's nodes that are not
// the input's are exactly the ones the reference marks modified; (d)
// every other node of the result is the input's, shared.
func FuzzApply(f *testing.F) {
	f.Add("<r><a><b/></a><a/><c/></r>", "r/a", "<x><y/></x>", false)
	f.Add("<r><a><a/></a><b><a/></b></r>", "//a", "", true)
	f.Add("<r><a><b/></a><b/></r>", "//b", "", true)
	f.Add("<r><s><b/><b/></s><s/></r>", "/r/*/b", "<n/>", false)
	f.Add("<a><a><a/></a></a>", "//a", "<a/>", false)
	f.Fuzz(func(t *testing.T, doc, path, payload string, del bool) {
		if len(doc) > 400 || len(path) > 40 || len(payload) > 100 {
			return
		}
		tr, err := xmltree.ParseString(doc)
		if err != nil || tr.Size() > 16 {
			return
		}
		p, err := xpath.Parse(path)
		if err != nil || p.Size() > 8 {
			return
		}
		var u Update
		if del {
			d := Delete{P: p}
			if d.Validate() != nil {
				return
			}
			u = d
		} else {
			x, err := xmltree.ParseString(payload)
			if err != nil || x.Size() > 4 {
				return
			}
			u = Insert{P: p, X: x}
		}

		inXML, inShapes := tr.XML(), shapes(tr)
		got, points, err := u.Apply(tr)
		if err != nil {
			t.Fatal(err)
		}
		// (a) The input is unchanged.
		if tr.XML() != inXML {
			t.Fatalf("input XML changed: %s -> %s", inXML, tr.XML())
		}
		now := shapes(tr)
		if len(now) != len(inShapes) {
			t.Fatalf("input has %d nodes, had %d", len(now), len(inShapes))
		}
		for i, s := range inShapes {
			n := now[i]
			if n.n != s.n || n.id != s.id || n.label != s.label || !slices.Equal(n.children, s.children) {
				t.Fatalf("input node %d changed", s.id)
			}
		}

		// (b) The result equals the reference.
		want, wantPoints, marked := refApply(u, tr)
		if got.String() != want.String() || got.Digest() != want.Digest() {
			t.Fatalf("result %s, reference %s", got, want)
		}
		if !slices.Equal(sortedIDs(got), sortedIDs(want)) {
			t.Fatalf("result ids %v, reference ids %v", sortedIDs(got), sortedIDs(want))
		}
		var gotPoints []int
		for _, n := range points {
			gotPoints = append(gotPoints, n.ID())
		}
		if !slices.Equal(gotPoints, wantPoints) {
			t.Fatalf("points %v, reference points %v", gotPoints, wantPoints)
		}

		// (c) Modified is "not the input's node"; (d) the rest is shared.
		input := map[int]*xmltree.Node{}
		for _, s := range inShapes {
			input[s.id] = s.n
		}
		modified := map[int]bool{}
		for _, n := range got.Nodes() {
			orig, ok := input[n.ID()]
			if !ok {
				continue // fresh
			}
			if orig != n {
				modified[n.ID()] = true
			} else if marked[n.ID()] {
				t.Fatalf("node %d is shared but the reference marks it modified", n.ID())
			}
		}
		for id := range marked {
			if !modified[id] {
				t.Fatalf("node %d is marked by the reference but not copied", id)
			}
		}
		if len(modified) != len(marked) {
			t.Fatalf("copied %v, reference marks %v", modified, marked)
		}
	})
}
