package core

import (
	"fmt"

	"xmlconflict/internal/ops"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/telemetry/span"
	"xmlconflict/internal/xmltree"
)

// ReadDeleteLinear decides whether READ_r conflicts with DELETE_d in
// polynomial time, for a linear read pattern r ∈ P^{//,*}. The delete
// pattern may branch (Corollary 1): by Lemma 4 the conflict reduces to the
// delete's spine D' = SEQ_ROOT(D)^Ø(D).
//
// For node conflicts, Lemma 3 characterizes conflicts by the existence of
// a read edge (n, n') such that D' matches SEQ_ROOT(R)^n weakly (for a
// descendant edge) or SEQ_ROOT(R)^{n'} strongly (for a child edge). For
// tree conflicts the additional case is that D' is weakly matched below
// Ø(R) (REMARK after Theorem 1), and for linear patterns value conflicts
// coincide with tree conflicts (Lemma 2).
//
// When a conflict exists, a concrete witness tree is constructed following
// the constructive halves of the proofs and re-verified with the Lemma 1
// checker before being returned.
func ReadDeleteLinear(r *pattern.Pattern, d ops.Delete, sem ops.Semantics) (Verdict, error) {
	return readDeleteLinearI(r, d, sem, nil, nil)
}

// readDeleteLinearI is ReadDeleteLinear with instrumentation: per-edge
// crossing decisions are counted and recorded as events on the detect
// span sp, and the automata products behind each decision report their
// sizes.
func readDeleteLinearI(r *pattern.Pattern, d ops.Delete, sem ops.Semantics, in *instr, sp *span.Span) (Verdict, error) {
	if !r.IsLinear() {
		return Verdict{}, fmt.Errorf("core: ReadDeleteLinear: read pattern %v is not linear", r)
	}
	if err := d.Validate(); err != nil {
		return Verdict{}, err
	}
	fresh := freshSymbol(r.Labels(), d.P.Labels())
	dspine := d.P.SpinePattern()
	read := ops.Read{P: r}

	// Node-conflict characterization (Lemma 3).
	spine := r.Spine()
	for i := 1; i < len(spine); i++ {
		n, np := spine[i-1], spine[i]
		in.count("linear.edges_checked", 1)
		var word []string
		var ok bool
		var err error
		if np.Axis() == pattern.Descendant {
			prefix, serr := r.Seq(r.Root(), n)
			if serr != nil {
				return Verdict{}, serr
			}
			word, ok, err = matchWeakI(dspine, prefix, fresh, in)
		} else {
			prefix, serr := r.Seq(r.Root(), np)
			if serr != nil {
				return Verdict{}, serr
			}
			word, ok, err = matchStrongI(dspine, prefix, fresh, in)
		}
		if err != nil {
			return Verdict{}, err
		}
		if !ok {
			edgeEvent(sp, i, np, "delete spine does not reach the edge", 0)
			continue
		}
		in.count("linear.cut_edges", 1)
		edgeEvent(sp, i, np, "", len(word))
		w, err := buildDeleteWitness(word, r, i, d, fresh)
		if err != nil {
			return Verdict{}, err
		}
		if sem != ops.NodeSemantics {
			// A node conflict implies a tree conflict; for the value
			// semantics the plain witness may hide the change behind an
			// isomorphic sibling, so fall back to the Lemma 2 uniquified
			// construction when needed.
			if ok, cerr := ops.ConflictWitness(sem, read, d, w); cerr != nil {
				return Verdict{}, cerr
			} else if !ok {
				uniquify(w, fresh+"u")
			}
		}
		if err := verifyWitness(sem, read, d, w, "read-delete"); err != nil {
			return Verdict{}, err
		}
		return Verdict{
			Conflict: true,
			Witness:  w,
			Method:   "linear",
			Complete: true,
			Detail:   fmt.Sprintf("read edge %d (%s%s) reaches a deletion point", i, np.Axis(), np.Label()),
			Edge:     i,
			Word:     word,
		}, nil
	}

	if sem == ops.NodeSemantics {
		return Verdict{Method: "linear", Complete: true}, nil
	}

	// Tree/value conflicts without a node conflict: Ø(R) maps at or above
	// a deletion point, i.e. D' and R match weakly.
	word, ok, err := matchWeakI(dspine, r, fresh, in)
	if err != nil {
		return Verdict{}, err
	}
	if !ok {
		return Verdict{Method: "linear", Complete: true}, nil
	}
	w, _ := chainTree(word)
	augmentForUpdate(w, d.P, fresh)
	if okW, cerr := ops.ConflictWitness(sem, read, d, w); cerr != nil {
		return Verdict{}, cerr
	} else if !okW {
		uniquify(w, fresh+"u")
	}
	if err := verifyWitness(sem, read, d, w, "read-delete (tree/value)"); err != nil {
		return Verdict{}, err
	}
	return Verdict{
		Conflict: true,
		Witness:  w,
		Method:   "linear",
		Complete: true,
		Detail:   "a deletion point lies in a returned subtree",
		Word:     word,
	}, nil
}

// buildDeleteWitness realizes the constructive half of Lemma 3 (extended
// per Lemma 4 for branching deletes): a chain spelled by the matching word
// ends at the deletion point u; the remainder of the read below the
// crossing edge is provided by a model grafted under u; and models of the
// delete's off-spine subpatterns are grafted everywhere so the full delete
// pattern embeds.
func buildDeleteWitness(word []string, r *pattern.Pattern, edgeIdx int, d ops.Delete, fresh string) (*xmltree.Tree, error) {
	w, u := chainTree(word)
	spine := r.Spine()
	np := spine[edgeIdx]
	if np.Axis() == pattern.Descendant {
		// Weak match: n ↦ at/above u; the rest of the read from n' down
		// embeds into a model grafted under u (inside the deleted subtree).
		rest, err := r.Seq(np, r.Output())
		if err != nil {
			return nil, err
		}
		rest.ModelInto(w, u, fresh)
	} else if np != r.Output() {
		// Strong match: n' ↦ u exactly. If n' is the output, u itself is
		// the read result that gets deleted; otherwise the rest of the
		// read from n's child onward embeds under u.
		rest, err := r.Seq(spine[edgeIdx+1], r.Output())
		if err != nil {
			return nil, err
		}
		rest.ModelInto(w, u, fresh)
	}
	augmentForUpdate(w, d.P, fresh)
	return w, nil
}
