package core

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"xmlconflict/internal/telemetry"
)

// This file is the fault-containment and degradation vocabulary of the
// engine. The general detection problem is NP-complete (Section 5), so
// the search-based detector is inherently a bounded, best-effort
// procedure: the constants below say *why* a verdict came back
// incomplete, and InternalError/ContainPanic keep a defect in one
// detection from taking down a whole batch, analysis, or server.

// Machine-readable reasons an incomplete verdict carries in
// Verdict.Reason. Complete verdicts have an empty Reason.
const (
	// ReasonCandidateCap: the search hit SearchOptions.MaxCandidates
	// before exhausting the witness bound.
	ReasonCandidateCap = "candidate-cap"
	// ReasonNodeCap: SearchOptions.MaxNodes was below the Lemma 11
	// bound, so the (fully swept) space may miss larger witnesses.
	ReasonNodeCap = "node-cap"
	// ReasonDeadline: SearchOptions.Deadline passed mid-search.
	ReasonDeadline = "deadline"
	// ReasonStepBudget: the shared SearchOptions.Steps budget ran dry.
	ReasonStepBudget = "step-budget"
	// ReasonCanceled: the context was canceled mid-search. The verdict
	// accompanies a non-nil error; the reason lets partial-result
	// consumers label what they got.
	ReasonCanceled = "canceled"
	// ReasonNoBound: no witness-size bound is known for the problem
	// (schema-aware detection, the paper's open question), so negative
	// search verdicts can never be complete.
	ReasonNoBound = "no-witness-bound"
)

// StepBudget is a shared, concurrency-safe budget on search work: each
// candidate a bounded search examines consumes one step. Unlike
// MaxCandidates (a per-search cap) one budget can be threaded through a
// whole batch or program analysis via SearchOptions.Steps, bounding the
// total work across every pair no matter how the pairs split it.
// Exhaustion degrades the running search to an incomplete verdict with
// Reason = ReasonStepBudget; it never errors.
type StepBudget struct{ left atomic.Int64 }

// NewStepBudget returns a budget of n steps.
func NewStepBudget(n int64) *StepBudget {
	b := &StepBudget{}
	b.left.Store(n)
	return b
}

// Remaining reports the steps left (never negative).
func (b *StepBudget) Remaining() int64 {
	if b == nil {
		return 0
	}
	if n := b.left.Load(); n > 0 {
		return n
	}
	return 0
}

// Take consumes one step, reporting false when the budget is exhausted.
// The nil budget is unlimited.
func (b *StepBudget) Take() bool {
	if b == nil {
		return true
	}
	return b.left.Add(-1) >= 0
}

// InternalError is a panic contained at one of the engine's isolation
// boundaries (a batch worker, an analysis worker, the verdict cache's
// singleflight leader, a serve handler). It carries the recovered value
// and the goroutine stack captured at the point of containment, so the
// defect stays diagnosable while only the offending pair or request
// fails.
type InternalError struct {
	// Op names the boundary that contained the panic, e.g.
	// "batch.worker" or "cache.leader".
	Op string
	// Value is the value the panic carried.
	Value any
	// Stack is the goroutine stack captured by the recover.
	Stack []byte
}

// NewInternalError captures the current stack around a recovered value.
func NewInternalError(op string, value any) *InternalError {
	return &InternalError{Op: op, Value: value, Stack: debug.Stack()}
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("core: internal error: panic in %s: %v", e.Op, e.Value)
}

// ContainPanic is the deferred half of a containment boundary: it
// recovers an in-flight panic into *errp as an *InternalError and
// counts it on m as "detect.panics" (m nil-safe). Use it at worker and
// handler boundaries so one defective pair fails alone:
//
//	func() (v Verdict, err error) {
//		defer ContainPanic("batch.worker", m, &err)
//		return cache.Detect(r, u, sem, opts)
//	}()
func ContainPanic(op string, m *telemetry.Metrics, errp *error) {
	if r := recover(); r != nil {
		m.Add("detect.panics", 1)
		*errp = NewInternalError(op, r)
	}
}

// expired reports whether the options carry a deadline that has passed.
func (o SearchOptions) expired() bool {
	return !o.Deadline.IsZero() && !time.Now().Before(o.Deadline)
}

// linearStop checks cancellation and the deadline before a linear
// detector's next read edge, done of edges having been decided: their
// cost grows about cubically with the read's length, so a long read must
// not outlive its caller. It reports whether to stop, with the verdict
// and error to stop with: incomplete, ReasonCanceled with the context's
// error, or ReasonDeadline.
func (o SearchOptions) linearStop(done, edges int) (Verdict, bool, error) {
	stopped := func(reason string) Verdict {
		return Verdict{Method: "linear", Reason: reason, Detail: fmt.Sprintf("stopped after %d of %d read edges", done, edges)}
	}
	if err := o.canceled(); err != nil {
		return stopped(ReasonCanceled), true, fmt.Errorf("core: detect canceled: %w", err)
	}
	if o.expired() {
		return stopped(ReasonDeadline), true, nil
	}
	return Verdict{}, false, nil
}

// WithDeadline returns a copy of o whose searches degrade to an
// incomplete verdict (Reason = ReasonDeadline) when the wall clock
// passes t. The zero time means no deadline.
func (o SearchOptions) WithDeadline(t time.Time) SearchOptions {
	o.Deadline = t
	return o
}

// WithTimeout is WithDeadline(now + d).
func (o SearchOptions) WithTimeout(d time.Duration) SearchOptions {
	return o.WithDeadline(time.Now().Add(d))
}

// WithSteps returns a copy of o drawing search work from the shared
// step budget b.
func (o SearchOptions) WithSteps(b *StepBudget) SearchOptions {
	o.Steps = b
	return o
}
