// Package match implements the embedding semantics of Section 2.3 of
// "Conflicting XML Updates": evaluation of a tree pattern p on a tree t,
// [[p]](t), is the set of images of the output node Ø(p) under all
// embeddings of p into t.
//
// One kernel (kernel.go) serves every evaluation: a top-down pass finds
// the tree nodes the pattern can reach, a bottom-up subtree-satisfiability
// pass and a top-down context-feasibility pass then run over those nodes
// only, on bitmask rows. The cost is O(|t|·|p|) at most, in the spirit of
// the Core XPath algorithm of Gottlob, Koch & Pichler that the paper cites
// for its polynomial-time operation bounds, and tracks the part of t the
// pattern reaches: a rooted child-axis path visits the children of the
// nodes on its matches, not the whole tree. A naive embedding enumerator
// (AllEmbeddings, EvalNaive) serves as the specification oracle in tests.
package match

import (
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
)

func labelOK(q *pattern.Node, v *xmltree.Node) bool {
	return q.IsWildcard() || q.Label() == v.Label()
}

// Eval returns [[p]](t): the set of nodes v of t such that some embedding
// of p into t maps Ø(p) to v. The result is sorted by node identity.
func Eval(p *pattern.Pattern, t *xmltree.Tree) []*xmltree.Node {
	return Compile(p).Eval(t)
}

// EvalPaths returns [[p]](t) with each result's root path (see
// Evaluator.EvalPaths).
func EvalPaths(p *pattern.Pattern, t *xmltree.Tree) xmltree.Paths {
	return Compile(p).EvalPaths(t)
}

// EvalSet returns [[p]](t) as a set of node identities.
func EvalSet(p *pattern.Pattern, t *xmltree.Tree) map[int]bool {
	out := map[int]bool{}
	for _, n := range Eval(p, t) {
		out[n.ID()] = true
	}
	return out
}

// Embeds reports whether an embedding of p into t exists at all
// ([[p]](t) ≠ ∅); it needs only the bottom-up pass.
func Embeds(p *pattern.Pattern, t *xmltree.Tree) bool {
	return Compile(p).Embeds(t)
}

// EmbedsAt reports whether the pattern p embeds into the tree t with the
// pattern root mapped to the node v of t (and the rest of the pattern
// mapped into v's subtree). It implements the side conditions of Lemma 6:
// an embedding of SEQ_{n'}^{Ø(R)} into X (v = root of X, anchored) or into
// some subtree of X (any v).
func EmbedsAt(p *pattern.Pattern, t *xmltree.Tree, v *xmltree.Node) bool {
	return Compile(p).embedsAt(v)
}

// EmbedsAnywhere reports whether p embeds into t with the pattern root
// mapped to any node of t.
func EmbedsAnywhere(p *pattern.Pattern, t *xmltree.Tree) bool {
	r := Compile(p).satisfy(t.Root(), true)
	return len(r.recs) > 0 && has(r.row(0, subRow), 0)
}

// Embedding is a total assignment of pattern nodes to tree nodes that
// satisfies the four embedding conditions of Section 2.3.
type Embedding map[*pattern.Node]*xmltree.Node

// Valid re-checks the four embedding conditions (root-, label-, child- and
// descendant-edge preservation); it is used by tests, on small trees, so
// it walks t's parent index.
func (e Embedding) Valid(p *pattern.Pattern, t *xmltree.Tree) bool {
	parents := t.Parents()
	for _, q := range p.Nodes() {
		v, ok := e[q]
		if !ok {
			return false
		}
		if q.Parent() == nil {
			if v != t.Root() {
				return false
			}
		} else {
			u := e[q.Parent()]
			if u == nil {
				return false
			}
			if _, ok := parents[v]; !ok {
				return false
			}
			if q.Axis() == pattern.Child {
				if parents[v] != u {
					return false
				}
			} else if !isAncestor(parents, u, v) {
				return false
			}
		}
		if !labelOK(q, v) {
			return false
		}
	}
	return true
}

// isAncestor reports whether u is a proper ancestor of v under parents.
func isAncestor(parents map[*xmltree.Node]*xmltree.Node, u, v *xmltree.Node) bool {
	for a := parents[v]; a != nil; a = parents[a] {
		if a == u {
			return true
		}
	}
	return false
}

// AllEmbeddings enumerates embeddings of p into t, invoking fn for each
// until fn returns false or the enumeration is exhausted. It is
// exponential in the worst case and exists as the specification oracle for
// Eval and as the embedding chooser of the marking procedure
// (Definition 9).
func AllEmbeddings(p *pattern.Pattern, t *xmltree.Tree, fn func(Embedding) bool) {
	pnodes := p.Nodes()
	e := Embedding{}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(pnodes) {
			cp := Embedding{}
			for k, v := range e {
				cp[k] = v
			}
			return fn(cp)
		}
		q := pnodes[i]
		var candidates []*xmltree.Node
		if q.Parent() == nil {
			candidates = []*xmltree.Node{t.Root()}
		} else {
			u := e[q.Parent()]
			if q.Axis() == pattern.Child {
				candidates = u.Children()
			} else {
				var collect func(n *xmltree.Node)
				collect = func(n *xmltree.Node) {
					candidates = append(candidates, n)
					for _, c := range n.Children() {
						collect(c)
					}
				}
				for _, c := range u.Children() {
					collect(c)
				}
			}
		}
		for _, v := range candidates {
			if !labelOK(q, v) {
				continue
			}
			e[q] = v
			if !rec(i + 1) {
				return false
			}
		}
		delete(e, q)
		return true
	}
	rec(0)
}

// FindEmbedding returns an embedding of p into t that maps Ø(p) to target
// (or to any node if target is nil), or nil if none exists.
func FindEmbedding(p *pattern.Pattern, t *xmltree.Tree, target *xmltree.Node) Embedding {
	var found Embedding
	AllEmbeddings(p, t, func(e Embedding) bool {
		if target == nil || e[p.Output()] == target {
			found = e
			return false
		}
		return true
	})
	return found
}

// EvalNaive computes [[p]](t) by full embedding enumeration; the test
// oracle for Eval.
func EvalNaive(p *pattern.Pattern, t *xmltree.Tree) []*xmltree.Node {
	seen := map[*xmltree.Node]bool{}
	AllEmbeddings(p, t, func(e Embedding) bool {
		seen[e[p.Output()]] = true
		return true
	})
	var out []*xmltree.Node
	for n := range seen {
		out = append(out, n)
	}
	return xmltree.SortByID(out)
}
