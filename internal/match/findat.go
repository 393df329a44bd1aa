package match

import (
	"slices"

	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
)

// FindEmbeddingAt returns an embedding of p into t that maps the output
// node Ø(p) to target, or nil if none exists. Unlike FindEmbedding, it
// runs in polynomial time: feasibility along the root-to-target path
// places the root-to-output spine of p (each spine node at the shallowest
// feasible image), and the off-spine subpatterns are then filled in
// greedily from the bottom-up satisfiability rows (sibling subpatterns
// are independent, so greedy choices cannot clash).
//
// The marking procedure of Definition 9 uses it to pick the embeddings
// e_R and e_I whose images must be preserved while a witness is shrunk.
func FindEmbeddingAt(p *pattern.Pattern, t *xmltree.Tree, target *xmltree.Node) Embedding {
	e := Compile(p)
	r := e.satisfy(t.Root(), false)
	w := r.w

	// The root path of target, read off the reached records: an
	// unrecorded node has no placeable pattern node, so no embedding
	// reaches it.
	end := int32(-1)
	for i := range r.recs {
		if r.recs[i].n == target {
			end = int32(i)
			break
		}
	}
	if end < 0 {
		return nil
	}
	var idx []int32
	for i := end; i >= 0; i = r.recs[i].parent {
		idx = append(idx, i)
	}
	slices.Reverse(idx)
	path := make([]*xmltree.Node, len(idx))
	for j, i := range idx {
		path[j] = r.recs[i].n
	}

	// feas[j]: the pattern nodes some embedding places at path[j].
	feas := make([]uint64, len(path)*w)
	allowed := make([]uint64, w)
	anc := make([]uint64, w)
	copy(allowed, r.seed[:w])
	for j := range path {
		f := feas[j*w : (j+1)*w]
		sat := r.row(idx[j], satRow)
		for k := range f {
			f[k] = sat[k] & allowed[k]
		}
		clear(allowed)
		e.allow(allowed, f, anc)
	}
	if !has(feas[(len(path)-1)*w:], e.out) {
		return nil
	}

	// Walk the spine up from the output: a child-axis node's parent sits
	// on the parent image, a descendant-axis node's parent on the
	// shallowest feasible proper ancestor.
	emb := Embedding{}
	spine := make([]int32, len(e.nodes)) // spine node -> recorded image, or -1
	for q := range spine {
		spine[q] = -1
	}
	q, j := e.out, len(path)-1
	for {
		emb[e.nodes[q]] = path[j]
		spine[q] = idx[j]
		if q == 0 {
			break
		}
		pq := int(e.parent[q])
		if e.nodes[q].Axis() == pattern.Child {
			j--
		} else {
			j = 0
			for !has(feas[j*w:(j+1)*w], pq) {
				j++
			}
		}
		q = pq
	}

	// findImage returns a recorded node below v whose subtree satisfies
	// the subpattern rooted at qc, respecting qc's axis, or -1.
	findImage := func(qc int, v int32) int32 {
		if e.nodes[qc].Axis() == pattern.Child {
			for c := v + 1; c < r.recs[v].end; c = r.recs[c].end {
				if has(r.row(c, satRow), qc) {
					return c
				}
			}
			return -1
		}
		for {
			next := int32(-1)
			for c := v + 1; c < r.recs[v].end; c = r.recs[c].end {
				if has(r.row(c, subRow), qc) {
					next = c
					break
				}
			}
			if next < 0 || has(r.row(next, satRow), qc) {
				return next
			}
			v = next
		}
	}

	// Fill in the off-spine subpatterns greedily, top-down.
	var fill func(q int, v int32) bool
	fill = func(q int, v int32) bool {
		emb[e.nodes[q]] = r.recs[v].n
		ok := true
		e.eachChild(q, func(qc int) bool {
			if spine[qc] >= 0 {
				return true
			}
			img := findImage(qc, v)
			ok = img >= 0 && fill(qc, img)
			return ok
		})
		return ok
	}
	for q := range spine {
		if spine[q] >= 0 && !fill(q, spine[q]) {
			return nil // unreachable given feasibility, kept as a safety net
		}
	}
	return emb
}
