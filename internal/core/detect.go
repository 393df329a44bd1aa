package core

import (
	"fmt"

	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/telemetry/span"
	"xmlconflict/internal/xmltree"
)

// Verdict is the outcome of a conflict-detection query.
type Verdict struct {
	// Conflict reports whether the two operations conflict: some tree t
	// exists on which applying the update changes the read's result under
	// the chosen semantics.
	Conflict bool
	// Witness is a concrete tree exhibiting the conflict. The linear
	// algorithms always construct one (and re-verify it with the Lemma 1
	// checker before returning); the search-based detector returns the
	// first tree found.
	Witness *xmltree.Tree
	// Method identifies the decision procedure: "linear" (the Section 4
	// polynomial-time algorithms) or "search" (bounded exhaustive witness
	// search for the NP-complete general case).
	Method string
	// Complete reports whether the verdict is definitive. Linear verdicts
	// are always complete. A negative search verdict is complete only if
	// the search covered the full Lemma 11 witness bound.
	Complete bool
	// Reason is the machine-readable cause of an incomplete verdict —
	// ReasonCandidateCap, ReasonNodeCap, ReasonDeadline,
	// ReasonStepBudget, ReasonCanceled, or ReasonNoBound — and empty
	// for complete verdicts. Detection being NP-complete in general, an
	// incomplete "no conflict" is a bounded best effort, and Reason says
	// which bound gave out.
	Reason string
	// Detail is a human-readable explanation (e.g. which read edge is the
	// cut edge).
	Detail string
	// Edge is the 1-based index of the read-spine edge through which the
	// conflict occurs (the cut edge of Lemma 6, or the crossing edge of
	// Lemma 3); 0 when not applicable (search verdicts, no conflict).
	Edge int
	// Word is the label word of the matching root-to-point path used to
	// construct the witness (linear method only).
	Word []string
	// Candidates is the number of candidate trees the search examined
	// before reaching this verdict; 0 for the linear decision procedures,
	// which never enumerate candidates.
	Candidates int
}

// String summarizes the verdict for human readers.
func (v Verdict) String() string {
	s := "no conflict"
	if v.Conflict {
		s = "conflict"
	}
	if !v.Complete {
		if v.Reason != "" {
			s += fmt.Sprintf(" (incomplete search: %s)", v.Reason)
		} else {
			s += " (incomplete search)"
		}
	}
	if v.Detail != "" {
		s += ": " + v.Detail
	}
	return fmt.Sprintf("%s [%s]", s, v.Method)
}

// Detect decides whether the read r conflicts with the update u under the
// given semantics. When the read pattern is linear (P^{//,*}), the
// polynomial-time algorithms of Section 4 apply — regardless of whether
// the update pattern branches (Corollaries 1 and 2). Otherwise the
// problem is NP-complete (Section 5) and Detect falls back to bounded
// exhaustive witness search with the given options.
func Detect(r ops.Read, u ops.Update, sem ops.Semantics, opts SearchOptions) (Verdict, error) {
	if err := r.P.Validate(); err != nil {
		return Verdict{}, fmt.Errorf("core: invalid read pattern: %w", err)
	}
	if err := u.Pattern().Validate(); err != nil {
		return Verdict{}, fmt.Errorf("core: invalid %s pattern: %w", u.Kind(), err)
	}
	if err := opts.canceled(); err != nil {
		return Verdict{Reason: ReasonCanceled}, fmt.Errorf("core: detect canceled: %w", err)
	}
	if err := faultinject.Fire("core.detect"); err != nil {
		return Verdict{}, fmt.Errorf("core: detect: %w", err)
	}
	in := observer(opts)
	in.count("detect.calls", 1)
	linear := r.P.IsLinear()
	method := "search"
	if linear {
		method = "linear"
	}
	sp := StartDetectSpan(opts.Ctx, method, r, u, sem)
	if sp != nil {
		// Nest the search under the detect span.
		opts.Ctx = span.Context(opts.Ctx, sp)
	}
	var v Verdict
	var err error
	if linear {
		switch u := u.(type) {
		case ops.Insert:
			v, err = readInsertLinearI(r.P, u, sem, opts, in, sp)
		case ops.Delete:
			v, err = readDeleteLinearI(r.P, u, sem, opts, in, sp)
		case *ops.Insert:
			v, err = readInsertLinearI(r.P, *u, sem, opts, in, sp)
		case *ops.Delete:
			v, err = readDeleteLinearI(r.P, *u, sem, opts, in, sp)
		default:
			v, err = SearchConflict(r, u, sem, opts)
		}
	} else {
		v, err = SearchConflict(r, u, sem, opts)
	}
	EndDetectSpan(sp, v, err)
	return v, err
}

// verifyWitness re-checks a constructed witness with the Lemma 1 checker.
// The constructive proofs guarantee validity; a failure indicates a bug,
// which we surface loudly rather than return an unsound verdict.
func verifyWitness(sem ops.Semantics, r ops.Read, u ops.Update, w *xmltree.Tree, context string) error {
	ok, err := ops.ConflictWitness(sem, r, u, w)
	if err != nil {
		return fmt.Errorf("core: %s: verifying witness: %w", context, err)
	}
	if !ok {
		return fmt.Errorf("core: internal error: %s constructed a tree that is not a witness (%s)", context, w)
	}
	return nil
}

// chainTree builds the path tree spelled by a non-empty label word
// (root..end) and returns the tree and its deepest node.
func chainTree(word []string) (*xmltree.Tree, *xmltree.Node) {
	t := xmltree.New(word[0])
	n := t.Root()
	for _, l := range word[1:] {
		n = t.AddChild(n, l)
	}
	return t, n
}

// augmentForUpdate grafts a model of every off-spine subpattern of the
// update pattern p under every current node of w, following the
// construction in the proofs of Lemmas 4 and 8: it ensures that whenever
// the spine SEQ_ROOT(p)^Ø(p) embeds into w along the main chain, the full
// branching pattern embeds too.
func augmentForUpdate(w *xmltree.Tree, p *pattern.Pattern, fresh string) {
	spine := p.Spine()
	onSpine := map[*pattern.Node]bool{}
	for _, q := range spine {
		onSpine[q] = true
	}
	var branches []*pattern.Pattern
	for _, q := range spine {
		for _, c := range q.Children() {
			if !onSpine[c] {
				branches = append(branches, p.Subpattern(c))
			}
		}
	}
	if len(branches) == 0 {
		return
	}
	nodes := w.Nodes()
	for _, n := range nodes {
		for _, b := range branches {
			b.ModelInto(w, n, fresh)
		}
	}
}

// uniquify attaches a child with a globally unique fresh label to every
// node currently in w. It is the device from the proof of Lemma 2: it
// makes the subtree rooted at each node of the witness unique up to
// isomorphism, so that a modification of a returned subtree becomes
// visible to the value-based semantics.
func uniquify(w *xmltree.Tree, prefix string) {
	for i, n := range w.Nodes() {
		w.AddChild(n, fmt.Sprintf("%s_%d", prefix, i))
	}
}
