package schema

import (
	"fmt"
	"time"

	"xmlconflict/internal/core"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/telemetry/span"
	"xmlconflict/internal/xmltree"
)

// DetectUnderSchema decides whether the read and the update conflict on
// some SCHEMA-VALID document. (The updated document need not remain
// valid — revalidation is a separate concern, cf. the paper's reference
// to schema-based revalidation.)
//
// The paper leaves the complexity of schema-aware conflict detection
// open; this implementation is: sound polynomial pruning first (an
// update whose pattern cannot fire on any valid tree never conflicts; a
// delete cannot conflict with a read whose pattern is unsatisfiable), then
// bounded exhaustive search over valid trees only. Positive verdicts
// carry a valid witness; negative search verdicts are marked incomplete
// because no witness-size bound is known for the schema-aware problem.
func DetectUnderSchema(r ops.Read, u ops.Update, sem ops.Semantics, s *Schema, opts core.SearchOptions) (v core.Verdict, err error) {
	if err := r.P.Validate(); err != nil {
		return core.Verdict{}, fmt.Errorf("schema: invalid read pattern: %w", err)
	}
	if err := u.Pattern().Validate(); err != nil {
		return core.Verdict{}, fmt.Errorf("schema: invalid %s pattern: %w", u.Kind(), err)
	}
	m := opts.Stats
	m.Add("detect.calls", 1)
	sp := core.StartDetectSpan(opts.Ctx, "schema", r, u, sem)
	if sp != nil {
		// Nest the search under the detect span.
		opts.Ctx = span.Context(opts.Ctx, sp)
		defer func() { core.EndDetectSpan(sp, v, err) }()
	}
	if !s.SatisfiablePattern(u.Pattern()) {
		m.Add("schema.static_prunes", 1)
		return core.Verdict{
			Method:   "schema-static",
			Complete: true,
			Detail:   "the update pattern cannot fire on any schema-valid document",
		}, nil
	}
	if u.Kind() == "delete" && !s.SatisfiablePattern(r.P) {
		// Deletion only removes nodes, so R stays empty on valid trees.
		m.Add("schema.static_prunes", 1)
		return core.Verdict{
			Method:   "schema-static",
			Complete: true,
			Detail:   "the read pattern is unsatisfiable under the schema and deletions cannot add results",
		}, nil
	}

	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = core.WitnessBound(r, u) // heuristic only: no proven bound under schemas
	}
	maxCand := opts.MaxCandidates
	if maxCand <= 0 {
		maxCand = core.DefaultMaxCandidates
	}
	if ssp := span.FromContext(opts.Ctx).Child("search"); ssp != nil {
		ssp.Set("max_nodes", maxNodes)
		ssp.Set("max_candidates", maxCand)
		ssp.Set("schema", true)
		defer func() { core.EndSearchSpan(ssp, v, err) }()
	}
	opts.Progress.Start("schema-search", int64(maxCand))
	checker := ops.NewChecker(sem, r, u, nil, m)
	var witness *xmltree.Tree
	var checkErr error
	examined := 0
	truncated, deadlined, starved, canceled := false, false, false, false
	s.EnumerateValid(maxNodes, func(t *xmltree.Tree) bool {
		if examined%64 == 0 {
			if opts.Ctx != nil {
				if err := opts.Ctx.Err(); err != nil {
					checkErr = fmt.Errorf("schema: search canceled: %w", err)
					canceled = true
					return false
				}
			}
			if !opts.Deadline.IsZero() && !time.Now().Before(opts.Deadline) {
				deadlined = true
				return false
			}
		}
		if examined >= maxCand {
			truncated = true
			return false
		}
		if !opts.Steps.Take() {
			starved = true
			return false
		}
		examined++
		opts.Progress.Step(1)
		ok, err := checker.Witness(t)
		if err != nil {
			checkErr = err
			return false
		}
		if ok {
			witness = t
			return false
		}
		return true
	})
	opts.Progress.Finish()
	m.Add("schema.candidates", int64(examined))
	if hits, misses := checker.CacheCounts(); hits+misses > 0 {
		m.Add("match.cache_hits", hits)
		m.Add("match.cache_misses", misses)
	}
	if canceled {
		return core.Verdict{
			Method:     "schema-search",
			Reason:     core.ReasonCanceled,
			Detail:     fmt.Sprintf("search canceled after %d candidates", examined),
			Candidates: examined,
		}, checkErr
	}
	if checkErr != nil {
		return core.Verdict{}, checkErr
	}
	if witness != nil {
		return core.Verdict{
			Conflict:   true,
			Witness:    witness,
			Method:     "schema-search",
			Complete:   true,
			Detail:     fmt.Sprintf("valid witness found after %d candidates", examined),
			Candidates: examined,
		}, nil
	}
	if truncated {
		m.Add("schema.truncated", 1)
	}
	// Never complete: the schema-aware witness-size bound is the paper's
	// open problem. The reason says which limit actually ended the sweep
	// so callers can tell a budgeted answer from the intrinsic one.
	reason := core.ReasonNoBound
	detail := fmt.Sprintf("no valid witness among %d trees of <= %d nodes", examined, maxNodes)
	switch {
	case truncated:
		reason = core.ReasonCandidateCap
		detail = fmt.Sprintf("search truncated at %d candidates (bound %d nodes)", maxCand, maxNodes)
	case deadlined:
		reason = core.ReasonDeadline
		detail = fmt.Sprintf("deadline passed after %d candidates (bound %d nodes)", examined, maxNodes)
	case starved:
		reason = core.ReasonStepBudget
		detail = fmt.Sprintf("step budget exhausted after %d candidates (bound %d nodes)", examined, maxNodes)
	}
	return core.Verdict{Method: "schema-search", Complete: false, Reason: reason, Detail: detail, Candidates: examined}, nil
}

// ValidityPreserving searches for a schema-valid document that the update
// turns invalid. It returns (true, nil) when no such document exists
// within the search bounds (preservation is then likely but, absent a
// bound, not proven), or (false, witness) with a valid document whose
// update violates the schema. This connects conflict detection to the
// incremental-revalidation line of work the paper cites.
func (s *Schema) ValidityPreserving(u ops.Update, maxNodes, maxCandidates int) (bool, *xmltree.Tree, error) {
	if maxNodes <= 0 {
		maxNodes = 2 * u.Pattern().Size()
	}
	if maxCandidates <= 0 {
		maxCandidates = core.DefaultMaxCandidates
	}
	var witness *xmltree.Tree
	var applyErr error
	examined := 0
	s.EnumerateValid(maxNodes, func(t *xmltree.Tree) bool {
		examined++
		if examined > maxCandidates {
			return false
		}
		after, err := ops.ApplyCopy(u, t)
		if err != nil {
			applyErr = err
			return false
		}
		if !s.Valid(after) {
			witness = t
			return false
		}
		return true
	})
	if applyErr != nil {
		return false, nil, applyErr
	}
	if witness != nil {
		return false, witness, nil
	}
	return true, nil, nil
}
