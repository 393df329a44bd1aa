package core

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/match"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/telemetry/span"
	"xmlconflict/internal/xmltree"
)

// DefaultDetectorCacheSize is the verdict capacity selected when
// NewDetectorCache is given a non-positive one.
const DefaultDetectorCacheSize = 4096

// DetectorCache memoizes conflict-detection verdicts for callers that
// decide many pairs drawn from a repeating population — the O(N²)
// pairwise loop of program.Analyze, a batch endpoint, a long-lived
// server. It is safe for concurrent use, bounded (LRU eviction), and
// deduplicating: concurrent lookups of the same key share one
// computation instead of racing to repeat it.
//
// The key is the SHA-256 of the pair's canonical form — the read
// pattern's and update pattern's canonical renderings (predicate order
// normalized), the inserted tree's isomorphism code for inserts, the
// conflict semantics, and the search bounds — so structurally equal
// pairs hit regardless of which pattern objects spell them, and an entry
// costs the same however large the insert's payload. Detection is
// deterministic in that form, which is what makes memoization sound: a
// hit returns exactly the verdict a fresh computation would.
//
// Underneath, one bounded match.Cache is shared across every memoized
// search, so compiled patterns are reused across Detect calls too.
// Cached verdicts (including witness trees) are shared between callers
// and must be treated as read-only.
type DetectorCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*list.Element
	lru     *list.List // of *cacheEntry, most recent first
	cap     int

	patterns     *match.Cache
	hits, misses atomic.Int64
	m            *telemetry.Metrics
}

// cacheEntry is one memoized verdict. ready is closed when the leading
// computation finishes; until then other goroutines with the same key
// wait on it instead of recomputing.
type cacheEntry struct {
	key   cacheKey
	ready chan struct{}
	done  bool // guarded by DetectorCache.mu; true once v/err are set
	v     Verdict
	err   error
}

// NewDetectorCache returns an empty cache holding at most capacity
// verdicts (<= 0 selects DefaultDetectorCacheSize).
func NewDetectorCache(capacity int) *DetectorCache {
	if capacity <= 0 {
		capacity = DefaultDetectorCacheSize
	}
	return &DetectorCache{
		entries:  map[cacheKey]*list.Element{},
		lru:      list.New(),
		cap:      capacity,
		patterns: match.NewCacheBounded(4 * capacity),
	}
}

// Instrument mirrors the cache's hit/miss counters into m as
// "detector_cache.hits" / "detector_cache.misses" (so they surface on a
// /metrics endpoint). Call it before the cache is shared between
// goroutines; nil detaches nothing and is allowed.
func (c *DetectorCache) Instrument(m *telemetry.Metrics) { c.m = m }

// Counts returns the accumulated hit and miss counts. A waiter that
// joins an in-flight computation counts as a hit; misses therefore equal
// the number of verdicts actually computed through the cache.
func (c *DetectorCache) Counts() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Cap returns the cache's verdict capacity (the effective value after
// defaulting) — part of the configuration identity a server reports.
func (c *DetectorCache) Cap() int { return c.cap }

// Detect is core.Detect memoized: on a hit the cached verdict is
// returned without touching the decision procedures; on a miss the
// verdict is computed (with the cache's shared compiled-pattern cache
// wired into the search) and stored. Errors are never cached — the
// failing key is evicted so a later call retries.
func (c *DetectorCache) Detect(r ops.Read, u ops.Update, sem ops.Semantics, opts SearchOptions) (Verdict, error) {
	key, ok := detectKey(r, u, sem, opts)
	if !ok {
		// An update kind we cannot canonicalize: stay correct, skip the
		// cache.
		if sp := span.FromContext(opts.Ctx); sp != nil {
			sp.Event("cache", span.A("disposition", "uncacheable"))
		}
		return Detect(r, u, sem, opts)
	}
	rsp := span.FromContext(opts.Ctx)
	for {
		e, leader := c.acquire(key)
		if leader {
			copts := opts
			copts.Patterns = c.patterns
			// The cache span wraps the leading computation so the detect
			// span nests under it and the disposition reads off the tree.
			csp := rsp.Child("detect.cached")
			if csp != nil {
				csp.Set("disposition", "miss")
				copts.Ctx = span.Context(copts.Ctx, csp)
			}
			// The leader MUST complete the entry even if detection
			// panics: waiters block on e.ready, and an uncontained
			// panic here would strand them forever. The recover turns
			// the defect into a typed *InternalError that fails only
			// this key.
			v, err := func() (v Verdict, err error) {
				defer ContainPanic("cache.leader", opts.Stats, &err)
				if ferr := faultinject.Fire("core.cache.leader"); ferr != nil {
					return Verdict{}, fmt.Errorf("core: cache leader: %w", ferr)
				}
				return Detect(r, u, sem, copts)
			}()
			c.complete(e, v, err)
			csp.Fail(err)
			csp.End()
			if err != nil {
				var ie *InternalError
				if errors.As(err, &ie) && c.m != nil && c.m != opts.Stats {
					c.m.Add("detect.panics", 1)
				}
				return v, err
			}
			c.record(&c.misses, "detector_cache.misses", opts)
			return v, nil
		}
		var csp *span.Span
		if rsp != nil {
			// Distinguish an already-published verdict (hit) from joining
			// an in-flight computation (leader-wait); the span's duration
			// is the wait.
			disposition := "leader-wait"
			select {
			case <-e.ready:
				disposition = "hit"
			default:
			}
			csp = rsp.Child("detect.cached")
			csp.Set("disposition", disposition)
		}
		var done <-chan struct{}
		if opts.Ctx != nil {
			done = opts.Ctx.Done()
		}
		select {
		case <-e.ready:
		case <-done:
			err := fmt.Errorf("core: detect canceled: %w", opts.Ctx.Err())
			csp.Fail(err)
			csp.End()
			return Verdict{}, err
		}
		csp.End()
		if e.err == nil {
			c.record(&c.hits, "detector_cache.hits", opts)
			return e.v, nil
		}
		// The leading computation failed (possibly its caller's context,
		// not ours) and its entry was evicted: try again as leader.
	}
}

// UpdatesIndependent is core.UpdatesIndependent with the read/update
// cross-checks routed through the verdict cache, so repeated
// update/update pairs in a program re-use the memoized detections.
func (c *DetectorCache) UpdatesIndependent(u1, u2 ops.Update, opts SearchOptions) (bool, string, error) {
	return updatesIndependentWith(c.Detect, u1, u2, opts)
}

// record bumps one of the cache's counters plus its telemetry mirrors.
func (c *DetectorCache) record(ctr *atomic.Int64, name string, opts SearchOptions) {
	ctr.Add(1)
	c.m.Add(name, 1)
	if opts.Stats != nil && opts.Stats != c.m {
		opts.Stats.Add(name, 1)
	}
}

// acquire returns the entry for key, reporting whether the caller is the
// leader that must compute it. Non-leaders wait on entry.ready.
func (c *DetectorCache) acquire(key cacheKey) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry), false
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = c.lru.PushFront(e)
	c.evictLocked()
	return e, true
}

// evictLocked drops least-recently-used completed entries until the
// cache is within capacity. In-flight entries are skipped — evicting one
// would detach waiters from their leader; if the overflow is entirely
// in-flight the cache temporarily exceeds capacity by the concurrency.
func (c *DetectorCache) evictLocked() {
	for el := c.lru.Back(); el != nil && len(c.entries) > c.cap; {
		prev := el.Prev()
		if e := el.Value.(*cacheEntry); e.done {
			c.lru.Remove(el)
			delete(c.entries, e.key)
		}
		el = prev
	}
}

// complete publishes a finished computation. Errors are not worth
// keeping (and a context cancellation must not poison the key for later
// callers), and incomplete verdicts must not be served from cache for
// the process lifetime — a budget-starved "no conflict" would otherwise
// masquerade as definitive to every later caller — so in both cases the
// entry is evicted before waiters are released. Waiters still receive
// this computation's outcome; only FUTURE lookups recompute.
func (c *DetectorCache) complete(e *cacheEntry, v Verdict, err error) {
	c.mu.Lock()
	e.v, e.err = v, err
	e.done = true
	if err != nil || !v.Complete {
		if el, ok := c.entries[e.key]; ok && el.Value.(*cacheEntry) == e {
			c.lru.Remove(el)
			delete(c.entries, e.key)
		}
	}
	c.mu.Unlock()
	close(e.ready)
}

// Len returns the number of cached verdicts (including in-flight ones).
func (c *DetectorCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// cacheKey is the SHA-256 of a detection query's canonical text.
type cacheKey [sha256.Size]byte

// detectKey canonicalizes a detection query. The second result is false
// for update implementations outside ops.Insert/ops.Delete, which have
// no canonical form.
func detectKey(r ops.Read, u ops.Update, sem ops.Semantics, opts SearchOptions) (cacheKey, bool) {
	uk, ok := updateKey(u)
	if !ok {
		return cacheKey{}, false
	}
	var b strings.Builder
	b.WriteString(r.P.String())
	b.WriteByte(0)
	b.WriteString(uk)
	b.WriteByte(0)
	b.WriteString(sem.String())
	b.WriteByte(0)
	writeBoundsKey(&b, opts)
	return sha256.Sum256([]byte(b.String())), true
}

// updateKey canonicalizes an update: kind, pattern rendering, and (for
// inserts) the payload's isomorphism code.
func updateKey(u ops.Update) (string, bool) {
	var b strings.Builder
	switch v := u.(type) {
	case ops.Insert:
		b.WriteString("insert\x00")
		b.WriteString(v.P.String())
		b.WriteByte(0)
		b.WriteString(xmltree.Code(v.X.Root()))
	case *ops.Insert:
		return updateKey(*v)
	case ops.Delete:
		b.WriteString("delete\x00")
		b.WriteString(v.P.String())
	case *ops.Delete:
		return updateKey(*v)
	default:
		return "", false
	}
	return b.String(), true
}

// writeBoundsKey appends the search bounds that shape the verdict: node
// and candidate caps and any explicit alphabet. Telemetry channels and
// the context do not affect verdicts and stay out of the key.
func writeBoundsKey(b *strings.Builder, opts SearchOptions) {
	fmt.Fprintf(b, "%d\x00%d", opts.MaxNodes, opts.MaxCandidates)
	for _, l := range opts.Labels {
		b.WriteByte(0)
		b.WriteString(l)
	}
}

// BatchItem is one read/update pair of a DetectBatch call.
type BatchItem struct {
	R   ops.Read
	U   ops.Update
	Sem ops.Semantics
}

// BatchResult is one item's outcome in a DetectBatchResults call. Err is
// the failure of that item alone — a panic contained at the worker
// boundary arrives here as a *InternalError — and when it is non-nil the
// Verdict is meaningful only as far as its Reason labels the failure.
type BatchResult struct {
	Verdict Verdict
	Err     error
}

// DetectBatchResults decides every pair, fanning the work out over a
// pool (workers <= 0 selects GOMAXPROCS) that shares cache (nil = a
// private cache for this batch). Results are indexed like items and
// identical to deciding each pair alone; each item's failure is
// contained to its own slot, so one poisoned pair — even one that
// panics the detector — cannot take down its batch-mates. The returned
// error is non-nil only for batch-wide conditions (opts.Ctx canceling
// the sweep); items never dispatched before the cancellation carry a
// canceled Verdict.Reason and the same error in their slot.
func DetectBatchResults(items []BatchItem, opts SearchOptions, workers int, cache *DetectorCache) ([]BatchResult, error) {
	if cache == nil {
		cache = NewDetectorCache(0)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	results := make([]BatchResult, len(items))
	batchSpan := span.FromContext(opts.Ctx)
	if batchSpan != nil {
		bsp := batchSpan.Child("batch")
		bsp.Set("items", len(items))
		bsp.Set("workers", workers)
		defer bsp.End()
		batchSpan = bsp
	}
	one := func(i int) (v Verdict, err error) {
		defer ContainPanic("batch.worker", opts.Stats, &err)
		if ferr := faultinject.Fire("core.batch.worker"); ferr != nil {
			return Verdict{}, fmt.Errorf("core: batch worker: %w", ferr)
		}
		it := items[i]
		iopts := opts
		if isp := batchSpan.Child("batch.item"); isp != nil {
			isp.Set("index", i)
			defer isp.End()
			iopts.Ctx = span.Context(opts.Ctx, isp)
		}
		return cache.Detect(it.R, it.U, it.Sem, iopts)
	}
	dispatched := len(items)
	if workers <= 1 {
		for i := range items {
			if opts.canceled() != nil {
				dispatched = i
				break
			}
			results[i].Verdict, results[i].Err = one(i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					results[i].Verdict, results[i].Err = one(i)
				}
			}()
		}
		for i := range items {
			if opts.canceled() != nil {
				dispatched = i
				break
			}
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	if err := opts.canceled(); err != nil {
		cerr := fmt.Errorf("core: batch canceled: %w", err)
		for i := dispatched; i < len(items); i++ {
			results[i] = BatchResult{
				Verdict: Verdict{Reason: ReasonCanceled, Detail: "batch canceled before this pair was dispatched"},
				Err:     cerr,
			}
		}
		return results, cerr
	}
	return results, nil
}

// DetectBatch decides every pair, fanning the work out over a pool
// (workers <= 0 selects GOMAXPROCS) that shares cache (nil = a private
// cache for this batch). Results are indexed like items and identical to
// deciding each pair alone; when pairs fail, the error of the
// lowest-indexed failing pair is returned, matching a sequential sweep.
// opts.Ctx cancels the whole batch. Callers that want per-item fault
// containment instead of all-or-nothing use DetectBatchResults.
func DetectBatch(items []BatchItem, opts SearchOptions, workers int, cache *DetectorCache) ([]Verdict, error) {
	results, err := DetectBatchResults(items, opts, workers, cache)
	if err != nil {
		return nil, err
	}
	verdicts := make([]Verdict, len(items))
	for i, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("pair %d: %w", i, res.Err)
		}
		verdicts[i] = res.Verdict
	}
	return verdicts, nil
}
