package core

import (
	"fmt"

	"xmlconflict/internal/match"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/telemetry/span"
)

// ReadInsertLinear decides whether READ_r conflicts with INSERT_{i.P, i.X}
// in polynomial time, for a linear read pattern r ∈ P^{//,*}. The insert
// pattern may branch (Corollary 2): by Lemma 8 the conflict reduces to the
// insert's spine I' = SEQ_ROOT(I)^Ø(I).
//
// For node conflicts, Lemmas 5 and 6 characterize conflicts by the
// existence of a cut edge (n, n') of the read: the part of the read above
// the edge matches I' (strongly for a child edge, weakly for a descendant
// edge), and the part below embeds into the inserted tree X (at its root
// for a child edge, anywhere for a descendant edge). Tree conflicts add
// the case that I' is weakly matched below Ø(R) (REMARK after Theorem 2),
// and value conflicts coincide with tree conflicts for linear patterns
// (Lemma 2).
func ReadInsertLinear(r *pattern.Pattern, ins ops.Insert, sem ops.Semantics) (Verdict, error) {
	return readInsertLinearI(r, ins, sem, SearchOptions{}, nil, nil)
}

// readInsertLinearI is ReadInsertLinear with instrumentation: per-edge
// cut decisions are counted and recorded as events on the detect span
// sp, and the automata products behind each decision report their sizes.
// It checks opts' context and deadline once per read edge.
func readInsertLinearI(r *pattern.Pattern, ins ops.Insert, sem ops.Semantics, opts SearchOptions, in *instr, sp *span.Span) (Verdict, error) {
	if !r.IsLinear() {
		return Verdict{}, fmt.Errorf("core: ReadInsertLinear: read pattern %v is not linear", r)
	}
	fresh := freshSymbol(r.Labels(), ins.P.Labels(), ins.X.Labels())
	ispine := ins.P.SpinePattern()
	read := ops.Read{P: r}

	// Cut-edge characterization (Lemmas 5-6).
	spine := r.Spine()
	for i := 1; i < len(spine); i++ {
		if v, stop, err := opts.linearStop(i-1, len(spine)-1); stop {
			return v, err
		}
		n, np := spine[i-1], spine[i]
		in.count("linear.edges_checked", 1)
		tail, err := r.Seq(np, r.Output())
		if err != nil {
			return Verdict{}, err
		}
		prefix, err := r.Seq(r.Root(), n)
		if err != nil {
			return Verdict{}, err
		}
		var word []string
		var ok bool
		if np.Axis() == pattern.Child {
			in.count("linear.embed_attempts", 1)
			if !match.EmbedsAt(tail, ins.X, ins.X.Root()) {
				edgeEvent(sp, i, np, "tail does not embed at X root", 0)
				continue
			}
			word, ok, err = matchStrongI(ispine, prefix, fresh, in)
		} else {
			in.count("linear.embed_attempts", 1)
			if !match.EmbedsAnywhere(tail, ins.X) {
				edgeEvent(sp, i, np, "tail does not embed in X", 0)
				continue
			}
			word, ok, err = matchWeakI(ispine, prefix, fresh, in)
		}
		if err != nil {
			return Verdict{}, err
		}
		if !ok {
			edgeEvent(sp, i, np, "spines do not match", 0)
			continue
		}
		in.count("linear.cut_edges", 1)
		edgeEvent(sp, i, np, "", len(word))
		// Constructive half of Lemma 6: the chain spelled by the word ends
		// at the insertion point u; models of the insert's off-spine
		// subpatterns make the full insert pattern embed (Lemma 8); the
		// inserted X itself hosts the read's tail.
		w, _ := chainTree(word)
		augmentForUpdate(w, ins.P, fresh)
		if sem != ops.NodeSemantics {
			if okW, cerr := ops.ConflictWitness(sem, read, ins, w); cerr != nil {
				return Verdict{}, cerr
			} else if !okW {
				uniquify(w, fresh+"u")
			}
		}
		if err := verifyWitness(sem, read, ins, w, "read-insert"); err != nil {
			return Verdict{}, err
		}
		return Verdict{
			Conflict: true,
			Witness:  w,
			Method:   "linear",
			Complete: true,
			Detail:   fmt.Sprintf("read edge %d (%s%s) is a cut edge", i, np.Axis(), np.Label()),
			Edge:     i,
			Word:     word,
		}, nil
	}

	if sem == ops.NodeSemantics {
		return Verdict{Method: "linear", Complete: true}, nil
	}

	// Tree/value conflicts without a node conflict: Ø(R) maps at or above
	// an insertion point, i.e. I' and R match weakly.
	word, ok, err := matchWeakI(ispine, r, fresh, in)
	if err != nil {
		return Verdict{}, err
	}
	if !ok {
		return Verdict{Method: "linear", Complete: true}, nil
	}
	w, _ := chainTree(word)
	augmentForUpdate(w, ins.P, fresh)
	if okW, cerr := ops.ConflictWitness(sem, read, ins, w); cerr != nil {
		return Verdict{}, cerr
	} else if !okW {
		uniquify(w, fresh+"u")
	}
	if err := verifyWitness(sem, read, ins, w, "read-insert (tree/value)"); err != nil {
		return Verdict{}, err
	}
	return Verdict{
		Conflict: true,
		Witness:  w,
		Method:   "linear",
		Complete: true,
		Detail:   "an insertion point lies in a returned subtree",
		Word:     word,
	}, nil
}
