package core

import (
	"fmt"
	"sort"

	"xmlconflict/internal/ops"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
)

// UpdateUpdateConflict decides the Section 6 notion of conflict between
// two updates: u1 and u2 conflict if some tree t exists on which
// u1(u2(t)) is not isomorphic to u2(u1(t)). The paper adopts value-based
// semantics here because fresh insert clones break node identity across
// the two orders; it shows the problem NP-hard (by adapting the Section 5
// reductions) and conjectures NP membership.
//
// The decision procedure is accordingly: fast sound special cases first
// (identical updates always commute; updates proven independent commute),
// then bounded exhaustive witness search over the restricted alphabet.
// A negative verdict is complete only when the search was exhaustive
// within the (conjectured, Lemma 11-shaped) bound.
func UpdateUpdateConflict(u1, u2 ops.Update, opts SearchOptions) (Verdict, error) {
	if err := u1.Pattern().Validate(); err != nil {
		return Verdict{}, fmt.Errorf("core: invalid %s pattern: %w", u1.Kind(), err)
	}
	if err := u2.Pattern().Validate(); err != nil {
		return Verdict{}, fmt.Errorf("core: invalid %s pattern: %w", u2.Kind(), err)
	}
	if identicalUpdates(u1, u2) {
		return Verdict{Method: "static", Complete: true, Detail: "identical updates trivially commute"}, nil
	}
	if ok, reason, err := UpdatesIndependent(u1, u2, opts); err != nil {
		return Verdict{}, err
	} else if ok {
		return Verdict{Method: "static", Complete: true, Detail: reason}, nil
	}

	// Bounded witness search for non-commutation.
	bound := u1.Pattern().Size() * u2.Pattern().Size() *
		(max(u1.Pattern().StarLength(), u2.Pattern().StarLength()) + 1)
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 || maxNodes > bound {
		maxNodes = bound
	}
	labels := opts.Labels
	if labels == nil {
		labels = updatePairAlphabet(u1, u2)
	}
	return Sweep{
		Method: "search", Counters: "updupd",
		Found: "non-commuting witness found", None: "no non-commuting tree among %d candidates of <= %d nodes",
		Bound: bound, MaxNodes: maxNodes, Alphabet: len(labels),
		Enumerate: func(yield func(*xmltree.Tree) bool) { EnumerateTrees(labels, maxNodes, yield) },
		Check:     func(t *xmltree.Tree) (bool, error) { return ops.CommuteWitness(u1, u2, t) },
	}.Run(opts)
}

// identicalUpdates reports that u1 and u2 denote the same operation:
// equal patterns, same kind, and (for inserts) isomorphic payloads. Then
// u1(u2(t)) and u2(u1(t)) are the same computation, so they commute under
// value semantics — the paper's motivating example for preferring value
// semantics in Section 6.
func identicalUpdates(u1, u2 ops.Update) bool {
	if u1.Kind() != u2.Kind() || !pattern.Equal(u1.Pattern(), u2.Pattern()) {
		return false
	}
	i1, ok1 := asInsert(u1)
	i2, ok2 := asInsert(u2)
	if ok1 != ok2 {
		return false
	}
	if ok1 {
		return xmltree.Isomorphic(i1.X, i2.X)
	}
	return true
}

func asInsert(u ops.Update) (ops.Insert, bool) {
	switch v := u.(type) {
	case ops.Insert:
		return v, true
	case *ops.Insert:
		return *v, true
	}
	return ops.Insert{}, false
}

// UpdatesIndependent reports a sufficient condition for two updates to
// commute on every tree: neither update can change the other's point set
// (each pattern, read-style, is conflict-free against the other update),
// and when a delete is involved its points can never coincide with or
// contain the other update's points. The cross-checks use the linear
// PTIME detectors when the patterns are linear and fall back to bounded
// search otherwise; an inconclusive search yields "not proven
// independent", never a wrong "independent".
func UpdatesIndependent(u1, u2 ops.Update, opts SearchOptions) (bool, string, error) {
	ind, err := updatesIndependentWith(Detect, u1, u2, opts)
	return ind.ok, ind.reason, err
}

// DetectFunc is the signature of Detect; the DetectorCache substitutes
// its memoized variant so independence cross-checks share the verdict
// cache.
type DetectFunc func(ops.Read, ops.Update, ops.Semantics, SearchOptions) (Verdict, error)

// independence is an UpdatesIndependent answer. It is definitive when
// every later ask of the same pair under the same bounds gets it again:
// a cross-check found a conflict, or both cross-checks were complete.
// An answer left open by a capped, timed-out or budget-starved search
// is not.
type independence struct {
	ok         bool
	reason     string
	definitive bool
}

// independenceBounds defaults the cross-checks' search bounds: witness
// trees of at most 6 nodes, at most 200 000 of them per cross-check.
func independenceBounds(opts SearchOptions) SearchOptions {
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 6
	}
	if opts.MaxCandidates == 0 {
		opts.MaxCandidates = 200_000
	}
	return opts
}

// updatesIndependentWith is UpdatesIndependent with the read/update
// cross-checks routed through detect.
func updatesIndependentWith(detect DetectFunc, u1, u2 ops.Update, opts SearchOptions) (independence, error) {
	opts = independenceBounds(opts)
	check := func(r, u ops.Update) (bool, bool, error) {
		v, err := detect(ops.Read{P: r.Pattern()}, u, ops.NodeSemantics, opts)
		if err != nil {
			return false, false, err
		}
		return v.Conflict, v.Complete, nil
	}
	c12, ok12, err := check(u1, u2)
	if err != nil {
		return independence{}, err
	}
	c21, ok21, err := check(u2, u1)
	if err != nil {
		return independence{}, err
	}
	if c12 || c21 {
		return independence{reason: "one update can change the other's points", definitive: true}, nil
	}
	if !ok12 || !ok21 {
		return independence{reason: "independence not proven (incomplete search)"}, nil
	}
	// With point sets order-independent, inserts at (possibly shared)
	// points commute: each point receives both payloads either way. A
	// delete, however, interacts with any update whose points can lie at
	// or below a deletion point.
	for _, pair := range [][2]ops.Update{{u1, u2}, {u2, u1}} {
		d, o := pair[0], pair[1]
		if d.Kind() != "delete" {
			continue
		}
		fresh := freshSymbol(d.Pattern().Labels(), o.Pattern().Labels())
		_, weak, err := MatchWeak(o.Pattern().SpinePattern(), d.Pattern().SpinePattern(), fresh)
		if err != nil {
			return independence{}, err
		}
		if weak {
			return independence{reason: "a deletion point may lie above the other update's points", definitive: true}, nil
		}
	}
	return independence{ok: true, reason: "updates cannot observe each other and no deletion covers the other's points", definitive: true}, nil
}

// updatePairAlphabet is the restricted witness alphabet for an
// update/update pair.
func updatePairAlphabet(u1, u2 ops.Update) []string {
	set := map[string]bool{}
	for _, u := range []ops.Update{u1, u2} {
		for l := range u.Pattern().Labels() {
			set[l] = true
		}
		if ins, ok := asInsert(u); ok {
			for l := range ins.X.Labels() {
				set[l] = true
			}
		}
	}
	set[freshSymbol(set)] = true
	labels := make([]string, 0, len(set))
	for l := range set {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}
