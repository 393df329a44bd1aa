package pattern

import (
	"sort"
	"strings"
)

// String renders the pattern in the XPath-like syntax of the paper's
// grammar (e/e | e//e | e[e] | e[.//e] | σ | *). The path from the root to
// the output node is rendered as the step spine; every off-spine subtree
// becomes a predicate on its anchor step, and a step's predicates are
// written in sorted order, so equal patterns render alike whatever order
// their children were added in. The result parses back (via
// internal/xpath) to an equal pattern.
//
// The rendering is kept on the pattern until AddChild, SetOutput or
// Attach changes it, so only the first call after a change walks the
// tree.
func (p *Pattern) String() string {
	if s := p.rendered.Load(); s != nil {
		return *s
	}
	s := p.render()
	p.rendered.Store(&s)
	return s
}

// render is String without the kept copy. A linear pattern, the common
// case, is written in one pass down its chain, into a stack buffer
// while it fits; at the first branch, or an output above the leaf, the
// pass gives way to renderBranching.
func (p *Pattern) render() string {
	var buf [64]byte
	b := append(buf[:0], '/')
	n := p.root
	b = append(b, n.label...)
	for len(n.children) == 1 {
		n = n.children[0]
		b = append(b, n.axis.String()...)
		b = append(b, n.label...)
	}
	if len(n.children) > 0 || n != p.out {
		return p.renderBranching()
	}
	return string(b)
}

// renderBranching renders a pattern with predicates: the spine as steps,
// each step's other children as its sorted predicates.
func (p *Pattern) renderBranching() string {
	var buf [32]*Node
	spine := buf[:0]
	for n := p.out; n != nil; n = n.parent {
		spine = append(spine, n)
	}
	var b strings.Builder
	for i := len(spine) - 1; i >= 0; i-- {
		n := spine[i]
		if i == len(spine)-1 {
			b.WriteByte('/')
		} else {
			b.WriteString(n.axis.String())
		}
		b.WriteString(n.label)
		var next *Node
		if i > 0 {
			next = spine[i-1]
		}
		writePredicates(&b, n, next)
	}
	return b.String()
}

// writePredicates writes the predicates of n's children other than skip
// in sorted order. A lone predicate is written in place; several are
// rendered apart first so they can be sorted.
func writePredicates(b *strings.Builder, n, skip *Node) {
	k := len(n.children)
	if skip != nil {
		k--
	}
	switch k {
	case 0:
		return
	case 1:
		for _, c := range n.children {
			if c != skip {
				writePredicate(b, c)
			}
		}
		return
	}
	preds := make([]string, 0, k)
	for _, c := range n.children {
		if c == skip {
			continue
		}
		var pb strings.Builder
		writePredicate(&pb, c)
		preds = append(preds, pb.String())
	}
	sort.Strings(preds)
	for _, pr := range preds {
		b.WriteString(pr)
	}
}

// writePredicate renders the subtree rooted at n as a predicate [...] on
// its parent step: n's label followed by its children's predicates,
// nested, so any shape is expressible.
func writePredicate(b *strings.Builder, n *Node) {
	b.WriteByte('[')
	if n.axis == Descendant {
		b.WriteString(".//")
	}
	b.WriteString(n.label)
	writePredicates(b, n, nil)
	b.WriteByte(']')
}
