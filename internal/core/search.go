package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"xmlconflict/internal/containment"
	"xmlconflict/internal/match"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/xmltree"
)

// SearchOptions configures the bounded exhaustive witness search used for
// branching read patterns, where conflict detection is NP-complete
// (Section 5).
type SearchOptions struct {
	// MaxNodes caps the size of candidate witnesses. 0 selects the
	// theoretical bound |R|·|U|·(k+1) of Lemma 11 (k = STAR-LENGTH(R)),
	// which makes a negative answer definitive — and, the paper being
	// right about NP-completeness, is usually far too expensive.
	MaxNodes int
	// Labels is the candidate alphabet. Nil selects Σ_R ∪ Σ_U ∪ Σ_X plus
	// one fresh symbol, which suffices by the trimming argument of
	// Section 5.1.1.
	Labels []string
	// MaxCandidates caps the number of trees examined (0 = 1,000,000).
	// When the cap is hit, the verdict is marked incomplete.
	MaxCandidates int

	// Stats, when non-nil, accumulates counters and gauges from the
	// decision procedures (candidates examined, automata product
	// sizes, cache traffic, ...). See the WithStats helper.
	Stats *telemetry.Metrics
	// Progress, when non-nil, receives throttled progress reports from
	// the candidate enumeration of the bounded searches. See
	// WithProgress.
	Progress *telemetry.Progress

	// Ctx, when non-nil, cancels in-flight detection: the bounded
	// searches poll it between candidates and return its error, so a
	// caller that goes away (an HTTP client disconnecting, an aborted
	// program analysis) stops burning a worker promptly. Nil means the
	// work is never canceled. A span it carries (span.Context) receives
	// the decision procedures' detect, search and shrink spans. See
	// WithContext.
	Ctx context.Context
	// Deadline, when non-zero, is a wall-clock budget: the bounded
	// searches poll it alongside the context and, once it passes, stop
	// and return an INCOMPLETE verdict with Reason = ReasonDeadline —
	// graceful degradation, not an error, because a best-effort answer
	// within the budget is exactly what a bounded NP search owes its
	// caller. See WithDeadline / WithTimeout.
	Deadline time.Time
	// Steps, when non-nil, is a step budget shared by every search
	// drawing from the same options: each candidate examined consumes
	// one step, and exhaustion ends the search with an incomplete
	// verdict (Reason = ReasonStepBudget). Unlike MaxCandidates it
	// bounds the TOTAL work of a batch or analysis, however the pairs
	// split it. See WithSteps.
	Steps *StepBudget
	// Patterns, when non-nil, is a shared compiled-pattern cache the
	// witness-search checkers draw evaluators from, extending reuse
	// across Detect calls (the DetectorCache wires its own in). Nil
	// gives each search a private cache.
	Patterns *match.Cache
}

// canceled returns the context's error if the options carry a canceled
// context, nil otherwise.
func (o SearchOptions) canceled() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// DefaultMaxCandidates is the candidate cap applied when
// SearchOptions.MaxCandidates is zero.
const DefaultMaxCandidates = 1_000_000

// WitnessBound returns the Lemma 11 bound on the size of a smallest
// conflict witness: |R|·|U|·(k+1), with k = STAR-LENGTH(R).
func WitnessBound(r ops.Read, u ops.Update) int {
	return r.P.Size() * u.Pattern().Size() * (r.P.StarLength() + 1)
}

// SearchConflict decides a conflict by enumerating all unordered labeled
// trees up to the size bound in canonical form and testing each with the
// Lemma 1 witness checker. It is the constructive counterpart of the NP
// membership proofs (Theorems 3 and 5): a conflict exists iff a witness of
// size at most the Lemma 11 bound exists. The running time is exponential
// in the bound, which is exactly the complexity shape the paper proves
// unavoidable (unless P = NP) for branching patterns.
func SearchConflict(r ops.Read, u ops.Update, sem ops.Semantics, opts SearchOptions) (Verdict, error) {
	m := opts.Stats
	// Minimization preserves [[p]](t) on every tree (homomorphism-
	// witnessed redundancy only), so the minimized instance has exactly
	// the same conflicts — with a smaller Lemma 11 bound and alphabet.
	r = ops.Read{P: containment.MinimizeStats(r.P, m)}
	u = minimizeUpdateStats(u, m)
	bound := WitnessBound(r, u)
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 || maxNodes > bound {
		maxNodes = bound
	}
	labels := opts.Labels
	if labels == nil {
		labels = SearchAlphabet(r, u)
	}
	checker := ops.NewChecker(sem, r, u, opts.Patterns, m)
	v, err := Sweep{
		Method: "search", Counters: "search",
		Found: "witness found", None: "no witness among %d trees of <= %d nodes",
		Bound: bound, MaxNodes: maxNodes, Alphabet: len(labels),
		Enumerate: func(yield func(*xmltree.Tree) bool) { EnumerateTrees(labels, maxNodes, yield) },
		Check:     checker.Witness,
	}.Run(opts)
	if opts.Patterns == nil && m != nil {
		// A shared pattern cache accumulates counts across callers; the
		// holder (the DetectorCache) reports them instead, so a per-search
		// dump here would double-count.
		hits, misses := checker.CacheCounts()
		m.Add("match.cache_hits", hits)
		m.Add("match.cache_misses", misses)
	}
	return v, err
}

// minimizeUpdate rebuilds an update with its pattern minimized.
func minimizeUpdate(u ops.Update) ops.Update { return minimizeUpdateStats(u, nil) }

// minimizeUpdateStats is minimizeUpdate recording minimization metrics
// into m (nil = disabled).
func minimizeUpdateStats(u ops.Update, m *telemetry.Metrics) ops.Update {
	switch v := u.(type) {
	case ops.Insert:
		return ops.Insert{P: containment.MinimizeStats(v.P, m), X: v.X}
	case *ops.Insert:
		return ops.Insert{P: containment.MinimizeStats(v.P, m), X: v.X}
	case ops.Delete:
		return ops.Delete{P: containment.MinimizeStats(v.P, m)}
	case *ops.Delete:
		return ops.Delete{P: containment.MinimizeStats(v.P, m)}
	default:
		return u
	}
}

// SearchAlphabet returns the restricted witness alphabet for a read/update
// pair: the labels of both patterns (and of the inserted tree, for
// inserts) plus one fresh symbol, per the trimming argument of
// Section 5.1.1.
func SearchAlphabet(r ops.Read, u ops.Update) []string {
	set := map[string]bool{}
	for l := range r.P.Labels() {
		set[l] = true
	}
	for l := range u.Pattern().Labels() {
		set[l] = true
	}
	if ins, ok := u.(ops.Insert); ok {
		for l := range ins.X.Labels() {
			set[l] = true
		}
	}
	set[freshSymbol(set)] = true
	var labels []string
	for l := range set {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}

// EnumerateTrees invokes fn on every unordered labeled tree with at most
// maxNodes nodes over the given alphabet, each isomorphism class exactly
// once, in order of increasing size. Enumeration stops when fn returns
// false. Candidate trees are freshly built; fn may retain them.
func EnumerateTrees(labels []string, maxNodes int, fn func(*xmltree.Tree) bool) {
	e := &treeEnum{labels: labels}
	for s := 1; s <= maxNodes; s++ {
		if !e.stream(s, func(t *encTree) bool { return fn(t.build(labels)) }) {
			return
		}
	}
}

// CountTrees returns the number of isomorphism classes of unordered
// labeled trees with exactly n nodes over an alphabet of the given size.
// It quantifies the search space of SearchConflict (experiments E7/E8).
func CountTrees(nLabels, n int) int {
	labels := make([]string, nLabels)
	for i := range labels {
		labels[i] = fmt.Sprintf("l%d", i)
	}
	e := &treeEnum{labels: labels}
	count := 0
	e.stream(n, func(*encTree) bool { count++; return true })
	return count
}

// CountTreesUpTo counts the isomorphism classes of trees with at most
// maxNodes nodes over an alphabet of the given size, stopping at the cap
// (the count saturates at cap). Unlike EnumerateTrees it never
// materializes candidate trees, so it is safe on astronomically large
// spaces.
func CountTreesUpTo(nLabels, maxNodes, cap int) int {
	labels := make([]string, nLabels)
	for i := range labels {
		labels[i] = fmt.Sprintf("l%d", i)
	}
	e := &treeEnum{labels: labels}
	count := 0
	for s := 1; s <= maxNodes; s++ {
		if !e.stream(s, func(*encTree) bool { count++; return count < cap }) {
			return cap
		}
	}
	return count
}

// encTree is a canonical-form tree skeleton: children are stored sorted by
// (size, rank) so each isomorphism class is generated exactly once.
type encTree struct {
	label int
	kids  []*encTree
	size  int
}

func (t *encTree) build(labels []string) *xmltree.Tree {
	out := xmltree.New(labels[t.label])
	var add func(parent *xmltree.Node, e *encTree)
	add = func(parent *xmltree.Node, e *encTree) {
		for _, k := range e.kids {
			add(out.AddChild(parent, labels[k.label]), k)
		}
	}
	add(out.Root(), t)
	return out
}

// treeEnum generates canonical trees. Trees of each exact size are
// memoized once they are needed as subtrees of larger trees; top-level
// enumeration streams without materializing.
type treeEnum struct {
	labels []string
	memo   map[int][]*encTree
}

// stream invokes fn on every canonical tree of exactly the given size; it
// returns false if fn aborted the enumeration.
func (e *treeEnum) stream(size int, fn func(*encTree) bool) bool {
	if size < 1 {
		return true
	}
	return e.streamForests(size-1, 1, 0, func(f []*encTree) bool {
		for l := range e.labels {
			if !fn(&encTree{label: l, kids: f, size: size}) {
				return false
			}
		}
		return true
	})
}

// trees returns (and memoizes) all canonical trees of exactly the given
// size, used as subtree building blocks by streamForests.
func (e *treeEnum) trees(size int) []*encTree {
	if e.memo == nil {
		e.memo = map[int][]*encTree{}
	}
	if ts, ok := e.memo[size]; ok {
		return ts
	}
	var out []*encTree
	e.stream(size, func(t *encTree) bool { out = append(out, t); return true })
	e.memo[size] = out
	return out
}

// streamForests enumerates all multisets of canonical trees with total
// size budget, as sequences non-decreasing in (size, rank); minSize and
// minRank give the least admissible first element, enforcing canonicity.
// It returns false if fn aborted.
func (e *treeEnum) streamForests(budget, minSize, minRank int, fn func([]*encTree) bool) bool {
	if budget == 0 {
		return fn(nil)
	}
	for s := minSize; s <= budget; s++ {
		ts := e.trees(s)
		start := 0
		if s == minSize {
			start = minRank
		}
		for r := start; r < len(ts); r++ {
			head := ts[r]
			ok := e.streamForests(budget-s, s, r, func(rest []*encTree) bool {
				f := make([]*encTree, 0, len(rest)+1)
				f = append(f, head)
				f = append(f, rest...)
				return fn(f)
			})
			if !ok {
				return false
			}
		}
	}
	return true
}
