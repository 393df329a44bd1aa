package match

import (
	"cmp"
	"math/bits"
	"slices"

	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
)

// Evaluator is a pattern compiled for evaluation: its nodes in preorder
// (index 0 is the root) and, for each node, bitmask rows naming its
// child-axis and its descendant-axis children. Every evaluation entry
// point of the package runs on it; compiling once serves callers that
// evaluate one pattern against many trees (the witness searches). An
// Evaluator is immutable and safe for concurrent use.
type Evaluator struct {
	nodes  []*pattern.Node
	parent []int32
	out    int
	w      int // words per bitmask row
	// kids row 2q: q's child-axis children; row 2q+1: its
	// descendant-axis children.
	kids []uint64
}

// Compile flattens a pattern into an Evaluator.
func Compile(p *pattern.Pattern) *Evaluator {
	var count func(n *pattern.Node) int
	count = func(n *pattern.Node) int {
		k := 1
		for _, c := range n.Children() {
			k += count(c)
		}
		return k
	}
	m := count(p.Root())
	w := (m + 63) / 64
	e := &Evaluator{
		nodes:  make([]*pattern.Node, 0, m),
		parent: make([]int32, 0, m),
		w:      w,
		kids:   make([]uint64, 2*m*w),
	}
	var walk func(n *pattern.Node, parent int32)
	walk = func(n *pattern.Node, parent int32) {
		q := len(e.nodes)
		if n == p.Output() {
			e.out = q
		}
		e.nodes = append(e.nodes, n)
		e.parent = append(e.parent, parent)
		if parent >= 0 {
			row := 2 * int(parent)
			if n.Axis() == pattern.Descendant {
				row++
			}
			e.kids[row*w+q/64] |= 1 << (q % 64)
		}
		for _, c := range n.Children() {
			walk(c, int32(q))
		}
	}
	walk(p.Root(), -1)
	return e
}

// run is one evaluation over the tree nodes it reaches. Only those nodes
// are recorded, in preorder; recs[i] and the three w-word rows at
// rows[3wi:] belong to the i-th.
//
// A node is reached when some pattern node can still be placed at or
// below it: a child-axis child of a pattern node placed at its parent,
// or a descendant-axis child of one placed at any ancestor. Descent
// stops where that set is empty, and a node at which nothing can be
// placed, below a parent that passes nothing down every descendant
// path, is not recorded either: all its rows would be zero. The passes
// consult only sat and sub entries of placeable pattern nodes, and
// those are exact, so pruning changes no answer.
type run struct {
	e    *Evaluator
	w    int
	recs []rec
	// Per recorded node, three rows:
	//   sat:  the subpatterns that embed with their root at the node;
	//         during the descent, the pattern nodes placeable there.
	//   sub:  the subpatterns that embed at the node or below; during the
	//         descent, the descendant-axis children of pattern nodes
	//         placed at the node or above. feasible() reuses it likewise.
	//   next: the candidates for the node's children (descent only).
	rows []uint64
	// seed: the root's candidates, then its inherited descendant set.
	seed []uint64
	or   []uint64 // scratch, 2w words
}

type rec struct {
	n      *xmltree.Node
	parent int32
	end    int32 // one past the last recorded descendant
}

const (
	satRow = iota
	subRow
	nextRow
)

// row returns row kind of recorded node i.
func (r *run) row(i int32, kind int) []uint64 {
	at := (3*int(i) + kind) * r.w
	return r.rows[at : at+r.w]
}

// smallRun is the number of recorded nodes a run has room for before it
// grows: witness candidates have at most eight nodes.
const smallRun = 8

// satisfy runs the bottom-up satisfiability pass over the nodes at and
// below root that the pattern reaches, with the pattern root placed at
// root — or, when anywhere is set, at any node.
func (e *Evaluator) satisfy(root *xmltree.Node, anywhere bool) run {
	w := e.w
	buf := make([]uint64, (3*smallRun+4)*w)
	r := run{e: e, w: w, recs: make([]rec, 0, smallRun), rows: buf[: 0 : 3*smallRun*w]}
	r.seed, r.or = buf[3*smallRun*w:(3*smallRun+2)*w], buf[(3*smallRun+2)*w:]
	r.seed[0] = 1
	if anywhere {
		r.seed[w] = 1
	}
	r.visit(root, -1)
	return r
}

// visit records n under the recorded node par (-1 for the root), descends
// into its children if anything can be placed below it, and computes its
// sat and sub rows once they are done.
func (r *run) visit(n *xmltree.Node, par int32) {
	w, e := r.w, r.e
	i := int32(len(r.recs))
	r.recs = append(r.recs, rec{n: n, parent: par})
	for k := 0; k < 3*w; k++ {
		r.rows = append(r.rows, 0)
	}
	cand, desc := r.seed[:w], r.seed[w:]
	if par >= 0 {
		cand, desc = r.row(par, nextRow), r.row(par, subRow)
	}
	place, down, next := r.row(i, satRow), r.row(i, subRow), r.row(i, nextRow)
	placed, inherit := false, false
	for k, x := range cand {
		for ; x != 0; x &= x - 1 {
			q := k*64 + bits.TrailingZeros64(x)
			if qn := e.nodes[q]; qn.IsWildcard() || qn.Label() == n.Label() {
				place[k] |= 1 << (q % 64)
				placed = true
			}
		}
		if desc[k] != 0 {
			inherit = true
		}
	}
	if !placed && !inherit {
		// Nothing is placeable here or below: every row stays zero.
		r.recs, r.rows = r.recs[:i], r.rows[:3*int(i)*w]
		return
	}
	copy(down, desc)
	e.allow(next, place, down)
	if nonzero(next) {
		for _, c := range n.Children() {
			r.visit(c, i)
		}
	}
	end := int32(len(r.recs))
	r.recs[i].end = end

	// Bottom-up: q is satisfied at n when each child-axis child of q is
	// satisfied at some child and each descendant-axis child of q at or
	// below some child.
	orSat, orSub := r.or[:w], r.or[w:]
	clear(r.or)
	for c := i + 1; c < end; c = r.recs[c].end {
		cs, cb := r.row(c, satRow), r.row(c, subRow)
		for k := 0; k < w; k++ {
			orSat[k] |= cs[k]
			orSub[k] |= cb[k]
		}
	}
	sat, sub := r.row(i, satRow), r.row(i, subRow)
	for k, x := range sat {
		for ; x != 0; x &= x - 1 {
			q := k*64 + bits.TrailingZeros64(x)
			for j := 0; j < w; j++ {
				if e.kids[(2*q)*w+j]&^orSat[j] != 0 || e.kids[(2*q+1)*w+j]&^orSub[j] != 0 {
					sat[k] &^= 1 << (q % 64)
					break
				}
			}
		}
	}
	for k := range sub {
		sub[k] = sat[k] | orSub[k]
	}
}

// eachChild calls fn on q's children in order until fn returns false.
func (e *Evaluator) eachChild(q int, fn func(qc int) bool) {
	w := e.w
	for k := 0; k < w; k++ {
		for x := e.kids[(2*q)*w+k] | e.kids[(2*q+1)*w+k]; x != 0; x &= x - 1 {
			if !fn(k*64 + bits.TrailingZeros64(x)) {
				return
			}
		}
	}
}

func has(row []uint64, q int) bool { return row[q/64]&(1<<(q%64)) != 0 }

func nonzero(row []uint64) bool {
	for _, x := range row {
		if x != 0 {
			return true
		}
	}
	return false
}

// allow adds to dst the pattern nodes a child of a node may take, given
// at, the pattern nodes placed at that node, and anc, the descendant-axis
// children of pattern nodes placed above it; anc gains those of at.
func (e *Evaluator) allow(dst, at, anc []uint64) {
	w := e.w
	for k, x := range at {
		for ; x != 0; x &= x - 1 {
			q := k*64 + bits.TrailingZeros64(x)
			for j := 0; j < w; j++ {
				dst[j] |= e.kids[(2*q)*w+j]
				anc[j] |= e.kids[(2*q+1)*w+j]
			}
		}
	}
	for j := range dst {
		dst[j] |= anc[j]
	}
}

// feasible runs the top-down pass after satisfy (pattern root at the
// tree root) and returns the indexes of the recorded nodes at which some
// embedding places the output node. A pattern node is feasible at a node
// when it is satisfied there and allowed by the nodes feasible above it.
// It reuses the sat rows for what each node allows its children and the
// sub rows for the descendant sets.
func (r *run) feasible() []int32 {
	w, e := r.w, r.e
	var result []int32
	feas := r.or[:w]
	for i := int32(0); i < int32(len(r.recs)); {
		sat, anc := r.row(i, satRow), r.row(i, subRow)
		if p := r.recs[i].parent; p < 0 {
			clear(anc)
			copy(feas, sat)
		} else {
			copy(anc, r.row(p, subRow))
			allowed := r.row(p, satRow)
			for k := range feas {
				feas[k] = sat[k] & allowed[k]
			}
		}
		if has(feas, e.out) {
			result = append(result, i)
		}
		clear(sat)
		e.allow(sat, feas, anc)
		if nonzero(sat) {
			i++
		} else {
			i = r.recs[i].end // nothing is feasible below i
		}
	}
	return result
}

// results runs both passes with the pattern root at t's root and returns
// the recorded results, or nil when the pattern does not embed.
func (e *Evaluator) results(t *xmltree.Tree) (run, []int32) {
	r := e.satisfy(t.Root(), false)
	if len(r.recs) == 0 || !has(r.row(0, satRow), 0) {
		return r, nil
	}
	return r, r.feasible()
}

// Eval computes [[p]](t), sorted by node identity.
func (e *Evaluator) Eval(t *xmltree.Tree) []*xmltree.Node {
	r, res := e.results(t)
	if len(res) == 0 {
		return nil
	}
	out := make([]*xmltree.Node, len(res))
	for k, i := range res {
		out[k] = r.recs[i].n
	}
	return xmltree.SortByID(out)
}

// EvalPaths computes [[p]](t) together with each result's root path,
// read off the reached records: the results are the named nodes, in
// identity order, and the paths hold them and their ancestors only. An
// update applies at these paths without walking the tree
// (xmltree.Tree.Inserted, Deleted).
func (e *Evaluator) EvalPaths(t *xmltree.Tree) xmltree.Paths {
	r, res := e.results(t)
	if len(res) == 0 {
		return xmltree.Paths{}
	}
	// Keep the results' ancestors; records list parents first, so the
	// kept ones renumber in order.
	at := make([]int32, len(r.recs))
	kept := 0
	for _, i := range res {
		for ; i >= 0 && at[i] == 0; i = r.recs[i].parent {
			at[i] = 1
			kept++
		}
	}
	ps := xmltree.Paths{Nodes: make([]*xmltree.Node, 0, kept), Parent: make([]int32, 0, kept)}
	for i, rc := range r.recs {
		if at[i] == 0 {
			continue
		}
		at[i] = int32(len(ps.Nodes))
		p := int32(-1)
		if rc.parent >= 0 {
			p = at[rc.parent]
		}
		ps.Nodes = append(ps.Nodes, rc.n)
		ps.Parent = append(ps.Parent, p)
	}
	ps.At = make([]int32, len(res))
	for k, i := range res {
		ps.At[k] = at[i]
	}
	slices.SortFunc(ps.At, func(a, b int32) int { return cmp.Compare(ps.Nodes[a].ID(), ps.Nodes[b].ID()) })
	return ps
}

// Embeds reports whether an embedding exists ([[p]](t) ≠ ∅): only the
// bottom-up pass runs.
func (e *Evaluator) Embeds(t *xmltree.Tree) bool {
	return e.embedsAt(t.Root())
}

func (e *Evaluator) embedsAt(v *xmltree.Node) bool {
	r := e.satisfy(v, false)
	return len(r.recs) > 0 && has(r.row(0, satRow), 0)
}
