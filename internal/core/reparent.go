package core

import (
	"fmt"

	"xmlconflict/internal/match"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/telemetry/span"
	"xmlconflict/internal/xmltree"
)

// Reparent applies the reparenting operation of Definition 10 to the tree
// t: the subtree rooted at v is detached from its parent and re-attached
// under u through a fresh chain of k+1 nodes labeled alpha. u must be an
// ancestor of v and the path from u to v must contain more than k+3 nodes.
// By Lemma 9, reparenting with respect to a pattern p with
// STAR-LENGTH(p) = k never creates new results of p among the pre-existing
// nodes of t.
func Reparent(t *xmltree.Tree, u, v *xmltree.Node, k int, alpha string) error {
	if !u.IsAncestorOf(v) {
		return fmt.Errorf("core: Reparent: u is not an ancestor of v")
	}
	if n := pathNodeCount(u, v); n <= k+3 {
		return fmt.Errorf("core: Reparent: path from u to v has %d nodes, need more than %d", n, k+3)
	}
	if err := t.Detach(v); err != nil {
		return err
	}
	cur := u
	for i := 0; i < k+1; i++ {
		cur = t.AddChild(cur, alpha)
	}
	return t.Attach(cur, v)
}

// pathNodeCount returns the number of nodes on the path from the ancestor
// u to the descendant v, endpoints included.
func pathNodeCount(u, v *xmltree.Node) int {
	n := 1
	for m := v; m != u; m = m.Parent() {
		n++
	}
	return n
}

// ShrinkWitness implements the witness-minimization pipeline behind the NP
// membership proofs (Theorems 3 and 5): given a tree w witnessing a node
// conflict between the read r and the update u, it marks the nodes
// essential to the conflict (Definition 9), repeatedly reparents marked
// nodes that are far from their nearest marked ancestor (Lemma 10), prunes
// all subtrees without marked nodes, and returns the shrunken witness,
// whose size is at most |R|·|U|·(k+1) · c for the small constant chain
// slack of Lemma 11. The result is re-verified to still witness the
// conflict before being returned.
func ShrinkWitness(w *xmltree.Tree, r ops.Read, u ops.Update) (*xmltree.Tree, error) {
	return ShrinkWitnessObserved(w, r, u, SearchOptions{})
}

// ShrinkWitnessObserved is ShrinkWitness reporting its work through
// opts: counters shrink.calls, shrink.marked_nodes, shrink.reparent_steps,
// shrink.nodes_before, and shrink.nodes_after in Stats, and a "shrink"
// child of the span in Ctx summarizing the reduction (nodes_before,
// nodes_after, marked, reparent_steps). Progress is unused.
func ShrinkWitnessObserved(w *xmltree.Tree, r ops.Read, u ops.Update, opts SearchOptions) (_ *xmltree.Tree, rerr error) {
	sp := span.FromContext(opts.Ctx).Child("shrink")
	if sp != nil {
		sp.Set("nodes_before", w.Size())
		defer func() {
			sp.Fail(rerr)
			sp.End()
		}()
	}
	in := observer(opts)
	in.count("shrink.calls", 1)
	in.count("shrink.nodes_before", int64(w.Size()))
	t := w.Clone()
	t.ClearModified()
	after, err := ops.ApplyCopy(u, t)
	if err != nil {
		return nil, err
	}
	beforeRes := r.Eval(t)
	afterRes := r.Eval(after)
	beforeSet := idSet(beforeRes)
	afterSet := idSet(afterRes)
	afterIDs := idSet(after.Nodes())
	tIDs := idSet(t.Nodes())

	marked := map[*xmltree.Node]bool{t.Root(): true}
	mark := func(n *xmltree.Node) { marked[n] = true }

	switch u.(type) {
	case ops.Insert, *ops.Insert:
		// Find n_witness ∈ R(u(t)) \ R(t) and an embedding e_R selecting it
		// in u(t); its image nodes that pre-existed in t are marked
		// directly, and for every image node inside an inserted clone, the
		// insertion point below which it hangs is marked together with the
		// image of an embedding e_I of the insert pattern selecting it
		// (Definition 9).
		var nw *xmltree.Node
		for _, n := range afterRes {
			if !beforeSet[n.ID()] {
				nw = n
				break
			}
		}
		if nw == nil {
			return nil, fmt.Errorf("core: ShrinkWitness: tree is not a node-conflict witness for the insert")
		}
		eR := match.FindEmbeddingAt(r.P, after, nw)
		if eR == nil {
			return nil, fmt.Errorf("core: ShrinkWitness: internal: no embedding selects the witness node")
		}
		points := map[int]bool{}
		for _, img := range eR {
			if tIDs[img.ID()] {
				mark(t.NodeByID(img.ID()))
				continue
			}
			// Nearest ancestor that pre-existed is the insertion point.
			anc := img.Parent()
			for anc != nil && !tIDs[anc.ID()] {
				anc = anc.Parent()
			}
			if anc == nil {
				return nil, fmt.Errorf("core: ShrinkWitness: internal: inserted node with no pre-existing ancestor")
			}
			points[anc.ID()] = true
		}
		for id := range points {
			pt := t.NodeByID(id)
			mark(pt)
			eI := match.FindEmbeddingAt(u.Pattern(), t, pt)
			if eI == nil {
				return nil, fmt.Errorf("core: ShrinkWitness: internal: no insert embedding selects insertion point %d", id)
			}
			for _, img := range eI {
				mark(img)
			}
		}
	case ops.Delete, *ops.Delete:
		// Find n_witness ∈ R(t) \ R(u(t)); mark an embedding of R into t
		// selecting it, plus an embedding of D selecting the topmost
		// deleted ancestor (the deletion point), per Theorem 5's proof.
		var nw *xmltree.Node
		for _, n := range beforeRes {
			if !afterSet[n.ID()] {
				nw = n
				break
			}
		}
		if nw == nil {
			return nil, fmt.Errorf("core: ShrinkWitness: tree is not a node-conflict witness for the delete")
		}
		if afterIDs[nw.ID()] {
			// A branching read can lose a result whose node survives the
			// deletion (a predicate witness vanished instead); the marking
			// of Theorem 5 covers the linear case, where the witness node
			// itself is always deleted (Lemma 3).
			return nil, fmt.Errorf("core: ShrinkWitness: witness node %d survives the deletion; shrinking supports deleted witness nodes only (linear reads)", nw.ID())
		}
		eR := match.FindEmbeddingAt(r.P, t, nw)
		if eR == nil {
			return nil, fmt.Errorf("core: ShrinkWitness: internal: no embedding selects the witness node")
		}
		for _, img := range eR {
			mark(img)
		}
		// Topmost ancestor-or-self of nw that vanished.
		del := nw
		for p := nw.Parent(); p != nil && !afterIDs[p.ID()]; p = p.Parent() {
			del = p
		}
		eD := match.FindEmbeddingAt(u.Pattern(), t, del)
		if eD == nil {
			return nil, fmt.Errorf("core: ShrinkWitness: internal: no delete embedding selects deletion point %d", del.ID())
		}
		for _, img := range eD {
			mark(img)
		}
	default:
		return nil, fmt.Errorf("core: ShrinkWitness: unsupported update kind %q", u.Kind())
	}

	k := r.P.StarLength()
	alpha := freshSymbol(r.P.Labels(), u.Pattern().Labels(), t.Labels())

	in.count("shrink.marked_nodes", int64(len(marked)))

	// Iteratively reparent marked nodes that are too far from their
	// nearest marked ancestor (Lemma 10 preserves the conflict).
	reparents := 0
	for {
		var nFar, nAnc *xmltree.Node
		for m := range marked {
			if m.Parent() == nil {
				continue
			}
			anc := m.Parent()
			for !marked[anc] {
				anc = anc.Parent()
			}
			if pathNodeCount(anc, m) > k+3 {
				nFar, nAnc = m, anc
				break
			}
		}
		if nFar == nil {
			break
		}
		if err := Reparent(t, nAnc, nFar, k, alpha); err != nil {
			return nil, err
		}
		reparents++
	}
	in.count("shrink.reparent_steps", int64(reparents))

	// Prune subtrees containing no marked node.
	hasMarked := map[*xmltree.Node]bool{}
	var scan func(n *xmltree.Node) bool
	scan = func(n *xmltree.Node) bool {
		h := marked[n]
		for _, c := range n.Children() {
			if scan(c) {
				h = true
			}
		}
		hasMarked[n] = h
		return h
	}
	scan(t.Root())
	var prune func(n *xmltree.Node) error
	prune = func(n *xmltree.Node) error {
		for _, c := range append([]*xmltree.Node(nil), n.Children()...) {
			if !hasMarked[c] {
				if err := t.DeleteSubtree(c); err != nil {
					return err
				}
			} else if err := prune(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := prune(t.Root()); err != nil {
		return nil, err
	}

	if err := verifyWitness(ops.NodeSemantics, r, u, t, "ShrinkWitness"); err != nil {
		return nil, err
	}
	in.count("shrink.nodes_after", int64(t.Size()))
	if sp != nil {
		sp.Set("nodes_after", t.Size())
		sp.Set("marked", len(marked))
		sp.Set("reparent_steps", reparents)
	}
	return t, nil
}

func idSet(ns []*xmltree.Node) map[int]bool {
	s := map[int]bool{}
	for _, n := range ns {
		s[n.ID()] = true
	}
	return s
}
