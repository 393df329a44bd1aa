// Package xmltree implements the unordered, unranked labeled-tree data model
// of Section 2.1 of "Conflicting XML Updates" (Raghavachari & Shmueli,
// EDBT 2006).
//
// An XML document is a tree whose nodes carry labels drawn from an infinite
// alphabet Σ. Sibling order is not observable by the pattern language of the
// paper, so trees here are unordered: all comparisons (isomorphism,
// serialization) are order-insensitive.
//
// Nodes have stable integer identities. The reference-based conflict
// semantics of the paper (Definitions 2-4) compare results by node identity
// across a tree and its updated version, so the version an update returns
// (Inserted, Deleted) keeps every identity and shares the subtrees it left
// alone, a Clone keeps identities too, and freshly inserted nodes always
// draw new identities.
package xmltree

import (
	"fmt"
	"slices"
)

// Node is a node of an unordered labeled tree. Nodes are created and owned
// by a Tree; the zero value is not useful.
//
// A node has no parent pointer, so versions of a document share every
// subtree an update left alone: ops.Update.Apply copies only the paths
// from the root to its points (Inserted, Deleted). Callers that need a
// node's ancestors carry its root path, as the match kernel's reached
// records do, or build a parent index per call on a small tree
// (Parents). The label lives in the node, which keeps a Node to one
// 48-byte allocation however it was made (parsed, grafted or copied onto
// a new version's path).
type Node struct {
	label    string
	children []*Node
	id       int
}

// ID returns the node's identity, unique within its tree's history. Clones
// made with Tree.Clone and the versions updates return preserve IDs; nodes
// added by updates get fresh IDs.
func (n *Node) ID() int { return n.id }

// Label returns the node's label.
func (n *Node) Label() string { return n.label }

// Children returns the node's children. The returned slice is owned by the
// tree and must not be modified by the caller.
func (n *Node) Children() []*Node { return n.children }

// Tree is a rooted, unordered, labeled tree.
//
// Trees are values shared between versions: ops.Update.Apply changes no
// node reachable from the tree it is given, and the version it returns
// shares all but its copied paths with that tree. The in-place mutators
// (AddChild, Graft, DeleteSubtree, Detach, Attach, Relabel) are for
// building a tree and for changing a private Clone; on a tree that shares
// nodes with a version still in use they would change both.
type Tree struct {
	root   *Node
	nextID int
}

// New returns a tree consisting of a single root node with the given label.
func New(rootLabel string) *Tree {
	t := &Tree{}
	t.root = t.newNode(rootLabel)
	return t
}

// newNode allocates a node with the tree's next identity.
func (t *Tree) newNode(label string) *Node {
	n := &Node{label: label, id: t.nextID}
	t.nextID++
	return n
}

// Root returns the root node of the tree.
func (t *Tree) Root() *Node { return t.root }

// AddChild creates a new node with the given label, attaches it as a child
// of parent, and returns it. The parent must belong to this tree.
func (t *Tree) AddChild(parent *Node, label string) *Node {
	n := t.newNode(label)
	parent.children = append(parent.children, n)
	return n
}

// Size returns the number of nodes in the tree (|t| in the paper).
func (t *Tree) Size() int {
	n := 0
	t.Walk(func(*Node) bool { n++; return true })
	return n
}

// Height returns the number of nodes on the longest root-to-leaf path.
func (t *Tree) Height() int {
	var h func(n *Node) int
	h = func(n *Node) int {
		best := 0
		for _, c := range n.children {
			if d := h(c); d > best {
				best = d
			}
		}
		return best + 1
	}
	return h(t.root)
}

// Walk visits every node in preorder. If fn returns false, the walk skips
// the node's subtree (the node itself has already been visited).
func (t *Tree) Walk(fn func(*Node) bool) {
	walkNode(t.root, fn)
}

func walkNode(n *Node, fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.children {
		walkNode(c, fn)
	}
}

// Nodes returns all nodes of the tree in preorder.
func (t *Tree) Nodes() []*Node {
	var out []*Node
	t.Walk(func(n *Node) bool { out = append(out, n); return true })
	return out
}

// NodeByID returns the node with the given identity, or nil if the tree has
// no such node.
func (t *Tree) NodeByID(id int) *Node {
	var found *Node
	t.Walk(func(n *Node) bool {
		if n.ID() == id {
			found = n
			return false
		}
		return true
	})
	return found
}

// Labels returns the set of labels used in the tree (Σ_t in the paper).
func (t *Tree) Labels() map[string]bool {
	out := map[string]bool{}
	t.Walk(func(n *Node) bool { out[n.label] = true; return true })
	return out
}

// Parents returns an index from each node of t to its parent; the root
// maps to nil. Nodes carry no parent pointer, so callers that walk
// upward on a small tree (a witness, a test) build one per call; on a
// shared node it answers for this tree's version only.
func (t *Tree) Parents() map[*Node]*Node {
	out := map[*Node]*Node{t.root: nil}
	t.Walk(func(n *Node) bool {
		for _, c := range n.children {
			out[c] = n
		}
		return true
	})
	return out
}

// parentOf returns n's parent in t, and whether n is a node of t.
func (t *Tree) parentOf(n *Node) (*Node, bool) {
	if n == t.root {
		return nil, true
	}
	var parent *Node
	t.Walk(func(m *Node) bool {
		if parent != nil {
			return false
		}
		for _, c := range m.children {
			if c == n {
				parent = m
				return false
			}
		}
		return true
	})
	return parent, parent != nil
}

// Clone returns a deep copy of the tree in which every node keeps its
// identity: a private copy the in-place mutators may change.
func (t *Tree) Clone() *Tree {
	return &Tree{root: cloneNode(t.root), nextID: t.nextID}
}

func cloneNode(n *Node) *Node {
	m := &Node{label: n.label, id: n.id, children: make([]*Node, len(n.children))}
	for i, c := range n.children {
		m.children[i] = cloneNode(c)
	}
	return m
}

// CloneSubtree returns SUBTREE_n(t) as a fresh tree. Node identities are
// preserved from the source tree.
func (t *Tree) CloneSubtree(n *Node) *Tree {
	return &Tree{root: cloneNode(n), nextID: t.nextID}
}

// Graft attaches a fresh copy of the tree x as a new child of parent and
// returns the root of the copy. The copy's nodes draw new identities from
// this tree, modeling the INSERT operation's fresh clones X_i (Section 3).
func (t *Tree) Graft(parent *Node, x *Tree) *Node {
	return t.graftNode(parent, x.root)
}

func (t *Tree) graftNode(parent *Node, src *Node) *Node {
	n := t.AddChild(parent, src.label)
	for _, c := range src.children {
		t.graftNode(n, c)
	}
	return n
}

// DeleteSubtree detaches the subtree rooted at n from the tree. It returns
// an error when n is the root (the paper requires deletions to leave a
// tree: Ø(p) ≠ ROOT(p)) or not a node of t. It finds n's parent by a
// walk, so it costs O(|t|).
func (t *Tree) DeleteSubtree(n *Node) error {
	if n == t.root {
		return fmt.Errorf("xmltree: cannot delete the root of a tree")
	}
	p, ok := t.parentOf(n)
	if !ok {
		return fmt.Errorf("xmltree: node %d is not in the tree", n.id)
	}
	p.children = removeChild(p.children, n)
	return nil
}

// removeChild removes n from a child list, keeping the others' order.
func removeChild(children []*Node, n *Node) []*Node {
	for i, c := range children {
		if c == n {
			return slices.Delete(children, i, i+1)
		}
	}
	return children
}

// Relabel changes the label of n.
func (t *Tree) Relabel(n *Node, label string) { n.label = label }

// Detach removes n from its parent without deleting it, and Attach places a
// detached node (with its subtree) under a new parent. They implement the
// edge surgery used by the reparenting operation (Definition 10): the moved
// nodes keep their identities.
func (t *Tree) Detach(n *Node) error {
	return t.DeleteSubtree(n)
}

// Attach makes the detached node n a child of parent. n must not be a
// node of t.
func (t *Tree) Attach(parent, n *Node) error {
	if _, ok := t.parentOf(n); ok {
		return fmt.Errorf("xmltree: node %d is already attached", n.id)
	}
	parent.children = append(parent.children, n)
	return nil
}

// Paths names nodes of one tree together with their root paths, in the
// form the match kernel reaches them. Nodes holds the named nodes and
// their ancestors, every node after its parent, Nodes[0] the root;
// Parent[i] indexes the parent of Nodes[i] (-1 for the root); At indexes
// the named nodes, in the order an edit visits them. Nodes off the named
// nodes' root paths may be listed; they are left alone.
type Paths struct {
	Nodes  []*Node
	Parent []int32
	At     []int32
}

// Points returns the named nodes, in At's order.
func (ps Paths) Points() []*Node {
	out := make([]*Node, len(ps.At))
	for k, i := range ps.At {
		out[k] = ps.Nodes[i]
	}
	return out
}

// Inserted returns the version of t in which every node named by ps has
// a fresh copy of x as a new child (the INSERT of Section 3), grafted in
// At's order so fresh identities follow it. t is not changed: the named
// nodes and their ancestors are copied, keeping their identities, and
// every other node is shared with t.
func (t *Tree) Inserted(ps Paths, x *Tree) *Tree {
	need := make([]bool, len(ps.Nodes))
	for _, i := range ps.At {
		for ; i >= 0 && !need[i]; i = ps.Parent[i] {
			need[i] = true
		}
	}
	nt, copies := t.copyPaths(ps, need)
	for _, i := range ps.At {
		nt.graftNode(copies[i], x.root)
	}
	return nt
}

// Deleted returns the version of t without the subtrees rooted at the
// nodes named by ps (the DELETE of Section 3); a named node below another
// goes with it. t is not changed: the named nodes' ancestors are copied,
// keeping their identities, and every other node is shared with t. It
// returns an error when the root is named.
func (t *Tree) Deleted(ps Paths) (*Tree, error) {
	gone := make([]bool, len(ps.Nodes))
	for _, i := range ps.At {
		if ps.Parent[i] < 0 {
			return nil, fmt.Errorf("xmltree: cannot delete the root of a tree")
		}
		gone[i] = true
	}
	// Nodes lists parents first, so one pass spreads deletion downward
	// and leaves gone[i] && !gone[parent] only at the topmost points.
	var top []int32
	for i, p := range ps.Parent {
		if p >= 0 && gone[p] {
			gone[i] = true
		} else if gone[i] {
			top = append(top, int32(i))
		}
	}
	need := make([]bool, len(ps.Nodes))
	for _, i := range top {
		for p := ps.Parent[i]; p >= 0 && !need[p]; p = ps.Parent[p] {
			need[p] = true
		}
	}
	nt, copies := t.copyPaths(ps, need)
	for _, i := range top {
		p := copies[ps.Parent[i]]
		p.children = removeChild(p.children, ps.Nodes[i])
	}
	return nt, nil
}

// copyPaths returns a new version of t in which each node of ps marked
// in need is replaced by a copy with the same identity and label and its
// own child list, and copies[i] is the copy of ps.Nodes[i]. A marked
// node's parent must be marked too, so the copies form root paths.
func (t *Tree) copyPaths(ps Paths, need []bool) (*Tree, []*Node) {
	nt := &Tree{root: t.root, nextID: t.nextID}
	copies := make([]*Node, len(ps.Nodes))
	for i, n := range ps.Nodes {
		if !need[i] {
			continue
		}
		c := &Node{label: n.label, id: n.id, children: make([]*Node, len(n.children), len(n.children)+1)}
		copy(c.children, n.children)
		copies[i] = c
		if p := ps.Parent[i]; p >= 0 {
			pc := copies[p]
			pc.children[slices.Index(pc.children, n)] = c
		} else {
			nt.root = c
		}
	}
	return nt, copies
}

// String renders the tree in a compact, deterministic, XML-like form with
// children sorted by canonical code. It is meant for debugging and tests.
func (t *Tree) String() string { return canonicalString(t.root, nil) }
