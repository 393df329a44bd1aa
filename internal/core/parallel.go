package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"xmlconflict/internal/containment"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/xmltree"
)

// SearchConflictParallel is SearchConflict with the witness checks fanned
// out over a worker pool. Candidate generation stays sequential (the
// canonical enumeration is inherently ordered and cheap relative to the
// Lemma 1 checks); each candidate's conflict check runs on one of
// `workers` goroutines (0 = GOMAXPROCS).
//
// Verdicts agree with SearchConflict exactly, including the witness: each
// candidate carries its enumeration sequence number, and when workers race
// to a witness the one with the smallest sequence number — the canonically
// first, i.e. the very tree the sequential search would return — wins.
// Candidates raced past (skipped because a canonically earlier witness was
// already in hand) are counted in the verdict Detail, in the
// search.parallel.raced_past counter, and on the search span as
// raced_past next to the witness's witness_seq. The number of candidates
// examined before the enumeration halts may still vary from run to run;
// the verdict itself does not. Completeness semantics are identical: a
// negative verdict is complete iff every candidate up to the bound was
// checked.
func SearchConflictParallel(r ops.Read, u ops.Update, sem ops.Semantics, opts SearchOptions, workers int) (verdict Verdict, rerr error) {
	in := observer(opts)
	r = ops.Read{P: containment.MinimizeStats(r.P, in.metrics())}
	u = minimizeUpdateStats(u, in.metrics())
	bound := WitnessBound(r, u)
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 || maxNodes > bound {
		maxNodes = bound
	}
	labels := opts.Labels
	if labels == nil {
		labels = SearchAlphabet(r, u)
	}
	maxCand := opts.MaxCandidates
	if maxCand <= 0 {
		maxCand = DefaultMaxCandidates
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sp := startSearchSpan(opts, bound, maxNodes, maxCand, len(labels), workers)
	defer func() { EndSearchSpan(sp, verdict, rerr) }()
	in.progressStart("search", int64(maxCand))

	// Skeletons, not built trees, cross the channel: the build cost runs
	// worker-side so the serial producer stays cheap. The sequence number
	// is the candidate's position in the canonical enumeration.
	type cand struct {
		seq int64
		enc *encTree
	}
	cands := make(chan cand, workers*8)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	// bestSeq holds the smallest sequence number at which a witness has
	// been found (MaxInt64 while none has). Workers skip — and count as
	// raced past — any candidate canonically later than the current best:
	// bestSeq only ever decreases, so a candidate skipped against a stale
	// value is also later than the final best, and every candidate earlier
	// than the final best is fully checked. The surviving witness is
	// therefore the canonically first one, byte-identical to the
	// sequential search's.
	var bestSeq atomic.Int64
	bestSeq.Store(math.MaxInt64)
	var failed atomic.Bool
	var racedPast atomic.Int64
	var mu sync.Mutex
	var bestWitness *xmltree.Tree
	var firstErr error
	checked := make([]int64, workers)

	checker := ops.NewChecker(sem, r, u, opts.Patterns, in.metrics())

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for c := range cands {
				if failed.Load() || c.seq > bestSeq.Load() {
					racedPast.Add(1)
					continue
				}
				t := c.enc.build(labels)
				checked[id]++
				ok, err := checker.Witness(t)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
					halt()
					continue
				}
				if ok {
					mu.Lock()
					if c.seq < bestSeq.Load() {
						bestSeq.Store(c.seq)
						bestWitness = t
					}
					mu.Unlock()
					halt()
				}
			}
		}(i)
	}

	var examined int64
	truncated, deadlined, starved := false, false, false
	var ctxErr error
	enumerateSkeletons(labels, maxNodes, func(t *encTree) bool {
		if examined%cancelCheckInterval == 0 {
			if err := opts.canceled(); err != nil {
				ctxErr = fmt.Errorf("core: search canceled: %w", err)
				in.count("search.canceled", 1)
				return false
			}
			if opts.expired() {
				deadlined = true
				in.count("search.deadline", 1)
				return false
			}
		}
		if examined >= int64(maxCand) {
			truncated = true
			return false
		}
		if !opts.Steps.Take() {
			starved = true
			in.count("search.step_budget", 1)
			return false
		}
		examined++
		in.progressStep(1)
		select {
		case cands <- cand{seq: examined, enc: t}:
			return true
		case <-stop:
			return false
		}
	})
	close(cands)
	wg.Wait()
	in.progressFinish()

	in.count("search.candidates", examined)
	in.count("search.parallel.raced_past", racedPast.Load())
	if opts.Patterns == nil {
		if hits, misses := checker.CacheCounts(); in != nil {
			in.count("match.cache_hits", hits)
			in.count("match.cache_misses", misses)
		}
	}
	if in != nil && in.m != nil {
		minC, maxC := checked[0], checked[0]
		for _, c := range checked[1:] {
			minC, maxC = min(minC, c), max(maxC, c)
		}
		in.m.Gauge("search.parallel.workers").Set(int64(workers))
		in.m.Gauge("search.parallel.worker_checked_min").Set(minC)
		in.m.Gauge("search.parallel.worker_checked_max").Set(maxC)
	}

	if firstErr != nil {
		return Verdict{}, firstErr
	}
	if ctxErr != nil && bestWitness == nil {
		// A witness already in hand when cancellation lands is still a
		// sound (and complete) verdict; without one the search is void —
		// the verdict labels the partial sweep for partial-result
		// consumers, the error stays authoritative.
		return Verdict{
			Method:     "search-parallel",
			Reason:     ReasonCanceled,
			Detail:     fmt.Sprintf("search canceled after %d candidates", examined),
			Candidates: int(examined),
		}, ctxErr
	}
	if sp != nil {
		sp.Set("raced_past", racedPast.Load())
		if bestWitness != nil {
			sp.Set("witness_seq", bestSeq.Load())
		}
	}
	if bestWitness != nil {
		return Verdict{
			Conflict: true,
			Witness:  bestWitness,
			Method:   "search-parallel",
			Complete: true,
			Detail: fmt.Sprintf("canonical witness at candidate %d with %d workers (%d candidates raced past)",
				bestSeq.Load(), workers, racedPast.Load()),
			Candidates: int(examined),
		}, nil
	}
	reason := incompleteReason(truncated, deadlined, starved, maxNodes, bound)
	complete := reason == ""
	if truncated {
		in.count("search.truncated", 1)
	}
	detail := fmt.Sprintf("no witness among %d trees of <= %d nodes (%d workers)", examined, maxNodes, workers)
	switch {
	case truncated:
		detail = fmt.Sprintf("search truncated at %d candidates (bound %d nodes)", maxCand, maxNodes)
	case deadlined:
		detail = fmt.Sprintf("deadline passed after %d candidates (bound %d nodes)", examined, maxNodes)
	case starved:
		detail = fmt.Sprintf("step budget exhausted after %d candidates (bound %d nodes)", examined, maxNodes)
	}
	return Verdict{Method: "search-parallel", Complete: complete, Reason: reason, Detail: detail, Candidates: int(examined)}, nil
}
