package core

import (
	"context"

	"xmlconflict/internal/ops"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/telemetry/span"
)

// Span integration of the decision procedures. Spans ride
// SearchOptions.Ctx (span.FromContext) and record every decision the
// engine makes: detect (method choice, operand sizes, verdict) with one
// "linear.edge" event per read edge the linear detectors decide, then
// search (bounds and budget spend) and shrink children. With no span in
// the context every hook is one nil check and builds no attribute, so
// untraced library calls (and the benchmarks) pay nothing.

// endSearchSpan closes a sweep's search span with its outcome: budget
// spend (candidates examined), the verdict, and — for incomplete
// sweeps — the degradation reason.
func endSearchSpan(sp *span.Span, v Verdict, err error) {
	if sp == nil {
		return
	}
	sp.Set("candidates", v.Candidates)
	sp.Set("conflict", v.Conflict)
	sp.Set("complete", v.Complete)
	if v.Reason != "" {
		sp.Set("reason", v.Reason)
	}
	if v.Witness != nil {
		sp.Set("witness_nodes", v.Witness.Size())
	}
	sp.Fail(err)
	sp.End()
}

// StartDetectSpan opens the "detect" child of ctx's span with the
// decision procedure chosen (method) and the operands: update kind,
// semantics, read linearity and both pattern sizes. Returns nil (inert)
// when tracing is off. The schema-aware detector opens its detect span
// here too.
func StartDetectSpan(ctx context.Context, method string, r ops.Read, u ops.Update, sem ops.Semantics) *span.Span {
	sp := span.FromContext(ctx).Child("detect")
	if sp == nil {
		return nil
	}
	sp.Set("kind", u.Kind())
	sp.Set("semantics", sem.String())
	sp.Set("method", method)
	sp.Set("read_linear", r.P.IsLinear())
	sp.Set("read_size", r.P.Size())
	sp.Set("update_size", u.Pattern().Size())
	return sp
}

// EndDetectSpan closes a detect span with the verdict.
func EndDetectSpan(sp *span.Span, v Verdict, err error) {
	if sp == nil {
		return
	}
	if err != nil {
		sp.Fail(err)
		sp.End()
		return
	}
	sp.Set("conflict", v.Conflict)
	sp.Set("method", v.Method)
	sp.Set("complete", v.Complete)
	if v.Reason != "" {
		sp.Set("reason", v.Reason)
	}
	if v.Detail != "" {
		sp.Set("detail", v.Detail)
	}
	if v.Candidates > 0 {
		sp.Set("candidates", v.Candidates)
	}
	if v.Witness != nil {
		sp.Set("witness_nodes", v.Witness.Size())
	}
	sp.End()
}

// edgeEvent records a linear detector's decision on read edge i (whose
// lower node is np) as a "linear.edge" event on the detect span: a cut
// edge with the length of its matching word, or, when why is set, the
// reason the edge is not one.
func edgeEvent(sp *span.Span, i int, np *pattern.Node, why string, wordLen int) {
	if sp == nil {
		return
	}
	last := span.A("word_len", wordLen)
	if why != "" {
		last = span.A("why", why)
	}
	sp.Event("linear.edge", span.A("edge", i), span.A("axis", np.Axis().String()), span.A("cut", why == ""), last)
}
