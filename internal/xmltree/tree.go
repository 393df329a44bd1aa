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
// across a tree and its updated version, so a Tree can be cloned with
// identities preserved (Clone) while freshly inserted nodes always draw new
// identities.
package xmltree

import (
	"fmt"
	"strings"
)

// Node is a node of an unordered labeled tree. Nodes are created and owned
// by a Tree; the zero value is not useful.
//
// The store retains a clone of each document for every admission-window
// entry, so a Node is kept to the 48-byte allocation class: clones share
// their source's label header, and the identity and the subtree-modified
// flag share one word.
type Node struct {
	label    *string
	parent   *Node
	children []*Node
	// key is id<<1 | modified. The modified bit records that the subtree
	// rooted at this node was changed by an update operation (used by the
	// Lemma 1 tree-conflict checker and the commute check).
	key int
}

// ID returns the node's identity, unique within its tree's history. Clones
// made with Tree.Clone preserve IDs; nodes added by updates get fresh IDs.
func (n *Node) ID() int { return n.key >> 1 }

// Label returns the node's label.
func (n *Node) Label() string { return *n.label }

// Parent returns the node's parent, or nil for the root.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the node's children. The returned slice is owned by the
// tree and must not be modified by the caller.
func (n *Node) Children() []*Node { return n.children }

// Modified reports whether the subtree rooted at n has been changed by an
// update operation applied to its tree.
func (n *Node) Modified() bool { return n.key&1 != 0 }

// IsAncestorOf reports whether n is a proper ancestor of m.
func (n *Node) IsAncestorOf(m *Node) bool {
	for p := m.parent; p != nil; p = p.parent {
		if p == n {
			return true
		}
	}
	return false
}

// Depth returns the number of edges from the root to n.
func (n *Node) Depth() int {
	d := 0
	for p := n.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// PathLabels returns the labels on the path from the root to n, inclusive.
func (n *Node) PathLabels() []string {
	var rev []string
	for m := n; m != nil; m = m.parent {
		rev = append(rev, *m.label)
	}
	out := make([]string, len(rev))
	for i, l := range rev {
		out[len(rev)-1-i] = l
	}
	return out
}

// Tree is a rooted, unordered, labeled tree.
type Tree struct {
	root   *Node
	nextID int
}

// New returns a tree consisting of a single root node with the given label.
func New(rootLabel string) *Tree {
	t := &Tree{}
	t.root = t.newNode(withLabel(rootLabel))
	return t
}

// withLabel allocates a node together with its label header, in one
// 64-byte allocation; clones and grafted copies share the header and take
// 48 bytes.
func withLabel(label string) *Node {
	a := &struct {
		n Node
		l string
	}{l: label}
	a.n.label = &a.l
	return &a.n
}

// newNode gives n the tree's next identity.
func (t *Tree) newNode(n *Node) *Node {
	n.key = t.nextID << 1
	t.nextID++
	return n
}

// Root returns the root node of the tree.
func (t *Tree) Root() *Node { return t.root }

// AddChild creates a new node with the given label, attaches it as a child
// of parent, and returns it. The parent must belong to this tree.
func (t *Tree) AddChild(parent *Node, label string) *Node {
	return t.addChild(parent, withLabel(label))
}

func (t *Tree) addChild(parent, n *Node) *Node {
	t.newNode(n)
	n.parent = parent
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
	t.Walk(func(n *Node) bool { out[*n.label] = true; return true })
	return out
}

// Contains reports whether n belongs to this tree.
func (t *Tree) Contains(n *Node) bool {
	for m := n; m != nil; m = m.parent {
		if m == t.root {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the tree in which every node keeps its
// identity. It is the basis for comparing R(t) with R(op(t)) under the
// reference-based semantics of Section 3.
func (t *Tree) Clone() *Tree {
	nt := &Tree{nextID: t.nextID}
	nt.root = cloneNode(t.root, nil)
	return nt
}

func cloneNode(n *Node, parent *Node) *Node {
	m := &Node{key: n.key, label: n.label, parent: parent}
	m.children = make([]*Node, len(n.children))
	for i, c := range n.children {
		m.children[i] = cloneNode(c, m)
	}
	return m
}

// CloneSubtree returns SUBTREE_n(t) as a fresh tree. Node identities are
// preserved from the source tree.
func (t *Tree) CloneSubtree(n *Node) *Tree {
	nt := &Tree{nextID: t.nextID}
	nt.root = cloneNode(n, nil)
	return nt
}

// Graft attaches a fresh copy of the tree x as a new child of parent and
// returns the root of the copy. The copy's nodes draw new identities from
// this tree, modeling the INSERT operation's fresh clones X_i (Section 3).
func (t *Tree) Graft(parent *Node, x *Tree) *Node {
	r := t.graftNode(parent, x.root)
	return r
}

func (t *Tree) graftNode(parent *Node, src *Node) *Node {
	n := t.addChild(parent, &Node{label: src.label})
	for _, c := range src.children {
		t.graftNode(n, c)
	}
	return n
}

// DeleteSubtree detaches the subtree rooted at n from the tree. It returns
// an error when n is the root (the paper requires deletions to leave a
// tree: Ø(p) ≠ ROOT(p)).
func (t *Tree) DeleteSubtree(n *Node) error {
	if n == t.root {
		return fmt.Errorf("xmltree: cannot delete the root of a tree")
	}
	p := n.parent
	for i, c := range p.children {
		if c == n {
			p.children = append(p.children[:i], p.children[i+1:]...)
			break
		}
	}
	n.parent = nil
	return nil
}

// MarkModified sets the subtree-modified flag on n and every ancestor of n.
// Update operations call it at each change point so that the tree-conflict
// check of Lemma 1 runs in time linear in |t|.
func (t *Tree) MarkModified(n *Node) {
	for m := n; m != nil; m = m.parent {
		m.key |= 1
	}
}

// ClearModified resets all subtree-modified flags.
func (t *Tree) ClearModified() {
	t.Walk(func(n *Node) bool { n.key &^= 1; return true })
}

// Relabel changes the label of n.
func (t *Tree) Relabel(n *Node, label string) { n.label = &label }

// Detach removes n from its parent without deleting it, and Attach places a
// detached node (with its subtree) under a new parent. They implement the
// edge surgery used by the reparenting operation (Definition 10): the moved
// nodes keep their identities.
func (t *Tree) Detach(n *Node) error {
	return t.DeleteSubtree(n)
}

// Attach makes the detached node n a child of parent. n must not currently
// have a parent.
func (t *Tree) Attach(parent, n *Node) error {
	if n.parent != nil {
		return fmt.Errorf("xmltree: node %d is already attached", n.ID())
	}
	n.parent = parent
	parent.children = append(parent.children, n)
	return nil
}

// String renders the tree in a compact, deterministic, XML-like form with
// children sorted by canonical code. It is meant for debugging and tests.
func (t *Tree) String() string {
	var b strings.Builder
	canonicalOrder(t.root).write(&b, 0, func(l string) string { return l })
	return b.String()
}
