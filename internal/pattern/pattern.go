// Package pattern implements the tree patterns of Section 2.2 of
// "Conflicting XML Updates" (Raghavachari & Shmueli, EDBT 2006), following
// the formalism of Miklau & Suciu.
//
// A pattern is a tree over Σ ∪ {*} whose edges are partitioned into child
// constraints (EDGES_/) and descendant constraints (EDGES_//), with one
// distinguished output node Ø(p). The full class P^{//,[],*} allows
// branching; the linear class P^{//,*} restricts each node to at most one
// outgoing edge with the output at the leaf.
//
// A pattern is built by New, AddChild, SetOutput and Attach, or in one
// step by Build, which the XPath parser uses. String renders it in the
// paper's XPath syntax and keeps the rendering on the pattern: later
// calls return it without walking the tree, and AddChild, SetOutput and
// Attach, the only operations that change a pattern, drop it. The kept
// rendering sits behind an atomic pointer, so goroutines may render one
// shared pattern at once; a pattern is not safe to change while others
// use it.
package pattern

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Wildcard is the label of wildcard pattern nodes (the symbol * ∉ Σ).
const Wildcard = "*"

// Axis is the kind of constraint an edge imposes between a pattern node and
// its parent.
type Axis int

const (
	// Child is a child constraint: the images must be in CHILD(t).
	Child Axis = iota
	// Descendant is a descendant constraint: the images must be in DESC(t).
	Descendant
)

// String renders the axis as its XPath separator ("/" or "//").
func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// Node is a node of a tree pattern. The axis describes the edge from the
// node's parent to the node; it is meaningless on the root.
type Node struct {
	label    string
	axis     Axis
	parent   *Node
	children []*Node
}

// Label returns the node's label ("*" for wildcards).
func (n *Node) Label() string { return n.label }

// IsWildcard reports whether the node is labeled with the wildcard symbol.
func (n *Node) IsWildcard() bool { return n.label == Wildcard }

// Axis returns the constraint on the edge from the node's parent.
func (n *Node) Axis() Axis { return n.axis }

// Parent returns the node's parent, or nil for the root.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the node's children. The slice is owned by the pattern
// and must not be modified.
func (n *Node) Children() []*Node { return n.children }

// Pattern is a tree pattern with a distinguished output node.
type Pattern struct {
	root *Node
	out  *Node
	// rendered is String's result, kept until the pattern changes.
	rendered atomic.Pointer[string]
}

// New returns a pattern consisting of a single root node, which is also the
// output node.
func New(rootLabel string) *Pattern {
	r := &Node{label: rootLabel}
	return &Pattern{root: r, out: r}
}

// Root returns the pattern's root node.
func (p *Pattern) Root() *Node { return p.root }

// Output returns the pattern's output node Ø(p).
func (p *Pattern) Output() *Node { return p.out }

// SetOutput marks n as the output node. n must belong to the pattern.
func (p *Pattern) SetOutput(n *Node) {
	p.out = n
	p.rendered.Store(nil)
}

// AddChild creates a new node attached under parent with the given axis and
// label, and returns it. parent must belong to the pattern.
func (p *Pattern) AddChild(parent *Node, axis Axis, label string) *Node {
	n := &Node{label: label, axis: axis, parent: parent}
	parent.children = append(parent.children, n)
	p.rendered.Store(nil)
	return n
}

// Step is one node of a pattern given to Build: its label, the axis of
// the edge from its parent, and its parent's index among the steps (-1
// for the root).
type Step struct {
	Label  string
	Axis   Axis
	Parent int
}

// Build returns the pattern whose nodes are the steps, in order:
// steps[0] is the root, each other step's Parent indexes an earlier
// step, and steps[out] is the output node. A node's children keep the
// order of their steps; steps that break these rules are a caller's bug
// and panic. All nodes come from one allocation and all child lists
// from another, so a pattern costs three allocations (four past 32
// nodes); a child added later by AddChild moves its parent's list out
// of the shared one instead of overwriting a neighbour's.
func Build(steps []Step, out int) *Pattern {
	if len(steps) == 0 || out < 0 || out >= len(steps) {
		panic(fmt.Sprintf("pattern: Build: output %d of %d steps", out, len(steps)))
	}
	nodes := make([]Node, len(steps))
	// Count each node's children, on the stack for the usual sizes.
	var small [32]int32
	var count []int32
	if len(steps) <= len(small) {
		count = small[:len(steps)]
	} else {
		count = make([]int32, len(steps))
	}
	for i := 1; i < len(steps); i++ {
		par := steps[i].Parent
		if par < 0 || par >= i {
			panic(fmt.Sprintf("pattern: Build: step %d has parent %d", i, par))
		}
		count[par]++
	}
	kids := make([]*Node, len(steps)-1)
	next := 0
	for i := range nodes {
		nodes[i].label = steps[i].Label
		nodes[i].axis = steps[i].Axis
		if c := int(count[i]); c > 0 {
			nodes[i].children = kids[next : next : next+c]
			next += c
		}
		if i > 0 {
			par := &nodes[steps[i].Parent]
			nodes[i].parent = par
			par.children = append(par.children, &nodes[i])
		}
	}
	return &Pattern{root: &nodes[0], out: &nodes[out]}
}

// Attach grafts a copy of the pattern q (ignoring q's output marking) under
// parent with the given axis, and returns the root of the copy. It is used
// to assemble patterns programmatically, e.g. in the hardness reductions of
// Section 5.
func (p *Pattern) Attach(parent *Node, axis Axis, q *Pattern) *Node {
	return p.attachNode(parent, axis, q.root)
}

func (p *Pattern) attachNode(parent *Node, axis Axis, src *Node) *Node {
	n := p.AddChild(parent, axis, src.label)
	for _, c := range src.children {
		p.attachNode(n, c.axis, c)
	}
	return n
}

// Nodes returns all nodes of the pattern in preorder.
func (p *Pattern) Nodes() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, n)
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(p.root)
	return out
}

// Size returns the number of nodes in the pattern (|p| in the paper).
func (p *Pattern) Size() int { return len(p.Nodes()) }

// Labels returns Σ_p, the set of non-wildcard labels used by the pattern.
func (p *Pattern) Labels() map[string]bool {
	out := map[string]bool{}
	for _, n := range p.Nodes() {
		if n.label != Wildcard {
			out[n.label] = true
		}
	}
	return out
}

// Validate checks structural invariants: the output node belongs to the
// pattern and every label is non-empty.
func (p *Pattern) Validate() error {
	if p.root == nil {
		return fmt.Errorf("pattern: nil root")
	}
	if p.out == nil {
		return fmt.Errorf("pattern: nil output node")
	}
	seen := false
	for _, n := range p.Nodes() {
		if n == p.out {
			seen = true
		}
		if n.label == "" {
			return fmt.Errorf("pattern: empty label")
		}
	}
	if !seen {
		return fmt.Errorf("pattern: output node is not part of the pattern")
	}
	return nil
}

// IsLinear reports whether the pattern belongs to P^{//,*}: every node has
// at most one outgoing edge and the output node is the leaf.
func (p *Pattern) IsLinear() bool {
	n := p.root
	for len(n.children) > 0 {
		if len(n.children) > 1 {
			return false
		}
		n = n.children[0]
	}
	return n == p.out
}

// Spine returns the nodes on the path from the root to the output node,
// inclusive, in root-to-output order.
func (p *Pattern) Spine() []*Node {
	var rev []*Node
	for n := p.out; n != nil; n = n.parent {
		rev = append(rev, n)
	}
	out := make([]*Node, len(rev))
	for i, n := range rev {
		out[len(rev)-1-i] = n
	}
	return out
}

// Seq returns SEQ_from^to: the linear pattern consisting of the nodes on
// the path from `from` down to `to` with the edges between them. `from`
// must be an ancestor-or-self of `to`. The copy's output is `to`.
func (p *Pattern) Seq(from, to *Node) (*Pattern, error) {
	var rev []*Node
	n := to
	for {
		rev = append(rev, n)
		if n == from {
			break
		}
		n = n.parent
		if n == nil {
			return nil, fmt.Errorf("pattern: Seq: %q is not an ancestor of %q", from.label, to.label)
		}
	}
	q := New(rev[len(rev)-1].label)
	cur := q.root
	for i := len(rev) - 2; i >= 0; i-- {
		cur = q.AddChild(cur, rev[i].axis, rev[i].label)
	}
	q.out = cur
	return q, nil
}

// SpinePattern returns SEQ_ROOT(p)^Ø(p), the linear pattern along the
// root-to-output path. By Lemmas 4 and 8 of the paper, conflicts of a
// linear read with a branching update reduce to conflicts with the update's
// spine pattern.
func (p *Pattern) SpinePattern() *Pattern {
	q, err := p.Seq(p.root, p.out)
	if err != nil {
		panic("pattern: SpinePattern: " + err.Error()) // unreachable: root is an ancestor of every node
	}
	return q
}

// Subpattern returns SUBPATTERN_n(p): a copy of the subtree of p rooted at
// n. The copy's output node is its root (the paper permits an arbitrary
// choice).
func (p *Pattern) Subpattern(n *Node) *Pattern {
	q := New(n.label)
	var walk func(dst *Node, src *Node)
	walk = func(dst *Node, src *Node) {
		for _, c := range src.children {
			walk(q.AddChild(dst, c.axis, c.label), c)
		}
	}
	walk(q.root, n)
	return q
}

// Clone returns a deep copy of the pattern, output marking included.
func (p *Pattern) Clone() *Pattern {
	q := &Pattern{}
	var walk func(src *Node, parent *Node) *Node
	walk = func(src *Node, parent *Node) *Node {
		n := &Node{label: src.label, axis: src.axis, parent: parent}
		if parent != nil {
			parent.children = append(parent.children, n)
		}
		if src == p.out {
			q.out = n
		}
		for _, c := range src.children {
			walk(c, n)
		}
		return n
	}
	q.root = walk(p.root, nil)
	return q
}

// StarLength returns STAR-LENGTH(p): the number of nodes in the longest
// chain of the pattern (a maximal run of child edges) in which every node
// is labeled *. It bounds the padding needed by the reparenting operation
// (Definition 10) and hence witness sizes (Lemma 11).
func (p *Pattern) StarLength() int {
	best := 0
	var walk func(n *Node, run int)
	walk = func(n *Node, run int) {
		if n.label == Wildcard {
			run++
		} else {
			run = 0
		}
		if run > best {
			best = run
		}
		for _, c := range n.children {
			if c.axis == Child {
				walk(c, run)
			} else {
				walk(c, 0)
			}
		}
	}
	walk(p.root, 0)
	return best
}

// Equal reports whether two patterns are identical as unordered trees with
// edge kinds and output markings. It is used, e.g., by the common
// subexpression analysis in the program analyzer.
func Equal(p, q *Pattern) bool {
	return canon(p.root, p.out) == canon(q.root, q.out)
}

// canon produces a canonical encoding of a pattern node's subtree,
// including axes and the output marking.
func canon(n *Node, out *Node) string {
	var b strings.Builder
	writeCanon(&b, n, out)
	return b.String()
}

func writeCanon(b *strings.Builder, n *Node, out *Node) {
	b.WriteByte('(')
	b.WriteString(n.axis.String())
	b.WriteString(n.label)
	if n == out {
		b.WriteByte('!')
	}
	if len(n.children) > 0 {
		cs := make([]string, len(n.children))
		for i, c := range n.children {
			cs[i] = canon(c, out)
		}
		sort.Strings(cs)
		for _, c := range cs {
			b.WriteString(c)
		}
	}
	b.WriteByte(')')
}
