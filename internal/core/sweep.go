package core

import (
	"fmt"

	"xmlconflict/internal/telemetry/span"
	"xmlconflict/internal/xmltree"
)

// cancelCheckInterval is how many candidates a sweep examines between
// context and deadline polls: cheap enough to keep cancellation latency
// in the microseconds without a per-candidate atomic load.
const cancelCheckInterval = 64

// Sweep is one bounded witness search: the constructive side of the
// paper's NP-membership proofs (Theorems 3 and 5), which test candidate
// trees up to a witness-size bound one by one. SearchConflict,
// UpdateUpdateConflict and the schema-aware search each supply only
// their candidates, the check that decides one, and the names they
// report under; the budget loop, its counters, its search span and the
// wording of a stopped sweep are shared (Loop, Run).
type Sweep struct {
	// Method is the verdict's Method and names the progress reports.
	Method string
	// Counters prefixes the sweep's counters: <Counters>.candidates,
	// and one of <Counters>.truncated, .deadline, .step_budget or
	// .canceled for the limit that stopped it.
	Counters string
	// Found describes a witness; the detail reads "<Found> after N
	// candidates".
	Found string
	// None is the detail of a negative verdict after the whole space
	// was swept: a format taking the candidates examined and MaxNodes.
	None string
	// Bound is the witness-size bound the problem is known to have (the
	// Lemma 11 bound), or 0 when none is known. A negative verdict is
	// complete only when MaxNodes reaches a known bound.
	Bound int
	// MaxNodes is the largest candidate the enumeration yields.
	MaxNodes int
	// Alphabet is the number of labels candidates are drawn from,
	// recorded on the search span when non-zero.
	Alphabet int
	// Schema records on the search span that the candidates are the
	// schema-valid trees.
	Schema bool
	// Enumerate yields the candidates in a fixed order until yield
	// returns false.
	Enumerate func(yield func(*xmltree.Tree) bool)
	// Check reports whether a candidate is a witness.
	Check func(*xmltree.Tree) (bool, error)
}

// SweepResult is what a sweep's loop found and what stopped it.
type SweepResult struct {
	// Witness is the first candidate Check accepted, or nil.
	Witness *xmltree.Tree
	// Candidates counts the candidates examined, each charged one step
	// of SearchOptions.Steps.
	Candidates int
	// Stop is the limit that ended the sweep before its space ran out:
	// ReasonCandidateCap, ReasonDeadline, ReasonStepBudget or
	// ReasonCanceled. It is empty when a witness was found, a check
	// failed, or every candidate was examined.
	Stop string
	// Err is a check's error or, with Stop = ReasonCanceled, the
	// context's.
	Err error
}

// maxCandidates resolves MaxCandidates' default.
func (o SearchOptions) maxCandidates() int {
	if o.MaxCandidates <= 0 {
		return DefaultMaxCandidates
	}
	return o.MaxCandidates
}

// Loop is the budget loop behind every sweep. Every cancelCheckInterval
// candidates it polls the context and the deadline; before each
// candidate it tests the candidate cap, then charges one step of the
// shared budget; it advances the progress report and checks the
// candidate. It stops at the first witness, the first error, or the
// first limit reached.
func (w Sweep) Loop(opts SearchOptions) SweepResult {
	maxCand := opts.maxCandidates()
	opts.Progress.Start(w.Method, int64(maxCand))
	var res SweepResult
	w.Enumerate(func(t *xmltree.Tree) bool {
		if res.Candidates%cancelCheckInterval == 0 {
			if err := opts.canceled(); err != nil {
				res.Stop, res.Err = ReasonCanceled, fmt.Errorf("core: search canceled: %w", err)
				return false
			}
			if opts.expired() {
				res.Stop = ReasonDeadline
				return false
			}
		}
		if res.Candidates >= maxCand {
			res.Stop = ReasonCandidateCap
			return false
		}
		if !opts.Steps.Take() {
			res.Stop = ReasonStepBudget
			return false
		}
		res.Candidates++
		opts.Progress.Step(1)
		ok, err := w.Check(t)
		switch {
		case err != nil:
			res.Err = err
		case ok:
			res.Witness = t
		default:
			return true
		}
		return false
	})
	opts.Progress.Finish()
	return res
}

// stopCounters names the counter each limit bumps.
var stopCounters = map[string]string{
	ReasonCandidateCap: "truncated",
	ReasonDeadline:     "deadline",
	ReasonStepBudget:   "step_budget",
	ReasonCanceled:     "canceled",
}

// Run sweeps under a "search" span and returns the verdict. A witness
// is a complete conflict. A cancellation returns the context's error
// with a verdict labelling the partial sweep; a check's error returns
// alone. A negative verdict is incomplete with the limit that stopped
// the sweep, or, when the space ran out, with ReasonNoBound where no
// bound is known and ReasonNodeCap where MaxNodes is below it.
func (w Sweep) Run(opts SearchOptions) (v Verdict, err error) {
	maxCand := opts.maxCandidates()
	sp := span.FromContext(opts.Ctx).Child("search")
	if sp != nil {
		if w.Bound > 0 {
			sp.Set("bound", w.Bound)
		}
		sp.Set("max_nodes", w.MaxNodes)
		sp.Set("max_candidates", maxCand)
		if w.Alphabet > 0 {
			sp.Set("alphabet", w.Alphabet)
		}
		if w.Schema {
			sp.Set("schema", true)
		}
		defer func() { endSearchSpan(sp, v, err) }()
	}
	res := w.Loop(opts)
	if m := opts.Stats; m != nil {
		m.Add(w.Counters+".candidates", int64(res.Candidates))
		if res.Stop != "" {
			m.Add(w.Counters+"."+stopCounters[res.Stop], 1)
		}
	}
	n := res.Candidates
	switch {
	case res.Stop == ReasonCanceled:
		return Verdict{Method: w.Method, Reason: ReasonCanceled, Detail: fmt.Sprintf("search canceled after %d candidates", n), Candidates: n}, res.Err
	case res.Err != nil:
		return Verdict{}, res.Err
	case res.Witness != nil:
		return Verdict{Conflict: true, Witness: res.Witness, Method: w.Method, Complete: true,
			Detail: fmt.Sprintf("%s after %d candidates", w.Found, n), Candidates: n}, nil
	}
	v = Verdict{Method: w.Method, Reason: res.Stop, Candidates: n}
	switch res.Stop {
	case ReasonCandidateCap:
		v.Detail = fmt.Sprintf("search truncated at %d candidates (bound %d nodes)", maxCand, w.MaxNodes)
	case ReasonDeadline:
		v.Detail = fmt.Sprintf("deadline passed after %d candidates (bound %d nodes)", n, w.MaxNodes)
	case ReasonStepBudget:
		v.Detail = fmt.Sprintf("step budget exhausted after %d candidates (bound %d nodes)", n, w.MaxNodes)
	default:
		v.Detail = fmt.Sprintf(w.None, n, w.MaxNodes)
		switch {
		case w.Bound == 0:
			v.Reason = ReasonNoBound
		case w.MaxNodes < w.Bound:
			v.Reason = ReasonNodeCap
		}
		v.Complete = v.Reason == ""
	}
	return v, nil
}
