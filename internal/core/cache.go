package core

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strconv"
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
// server, a store's admission screen. It is safe for concurrent use,
// bounded (LRU eviction), and deduplicating: concurrent lookups of the
// same key share one computation instead of racing to repeat it.
//
// It keeps two kinds of entry in one LRU of one capacity:
//
//   - a Detect verdict, keyed by the SHA-256 of the pair's canonical
//     form — the read pattern's and update pattern's canonical
//     renderings (predicate order normalized), the inserted tree's
//     isomorphism code for inserts, the conflict semantics, and the
//     search bounds;
//   - an UpdatesIndependent answer (independent or not, and why), keyed
//     the same way by the ordered pair's two updates and the
//     cross-checks' defaulted bounds, after a prefix no Detect key can
//     start with. Its two cross-checks go through Detect and are
//     entries of their own.
//
// So structurally equal queries hit regardless of which pattern objects
// spell them, and an entry costs the same however large the insert's
// payload. Both answers are deterministic in that form, which is what
// makes memoization sound: a hit returns exactly the answer a fresh
// computation would.
//
// It keeps only definitive answers: complete verdicts, and independence
// answers whose cross-checks found a conflict or were both complete. It
// never keeps an error, an incomplete verdict, or a "not proven"
// independence answer; those reach the callers already waiting on them
// and are recomputed on the next lookup.
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

// cacheEntry is one memoized answer: a Verdict, or an independence.
// ready is closed when the leading computation finishes; until then
// other goroutines with the same key wait on it instead of recomputing.
type cacheEntry struct {
	key   cacheKey
	ready chan struct{}
	done  bool // guarded by DetectorCache.mu; true once val/err are set
	val   any
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
// the number of answers actually computed through the cache. An
// UpdatesIndependent lookup counts once, as a hit or a miss, like a
// Detect lookup; a miss also counts its two cross-checks, which are
// Detect lookups of their own.
func (c *DetectorCache) Counts() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Cap returns the cache's verdict capacity (the effective value after
// defaulting) — part of the configuration identity a server reports.
func (c *DetectorCache) Cap() int { return c.cap }

// Detect is core.Detect memoized: on a hit the cached verdict is
// returned without touching the decision procedures; on a miss the
// verdict is computed (with the cache's shared compiled-pattern cache
// wired into the search) and stored if it is complete.
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
	val, err := c.lookup(key, "detect.cached", opts, func(copts SearchOptions) (any, bool, error) {
		copts.Patterns = c.patterns
		v, err := Detect(r, u, sem, copts)
		return v, v.Complete, err
	})
	v, _ := val.(Verdict)
	return v, err
}

// UpdatesIndependent is core.UpdatesIndependent memoized as one entry:
// a hit costs one key and one lookup, however the answer was reached.
// On a miss the cross-checks go through Detect, so they share the
// verdict cache too.
func (c *DetectorCache) UpdatesIndependent(u1, u2 ops.Update, opts SearchOptions) (bool, string, error) {
	key, ok := independenceKey(u1, u2, opts)
	if !ok {
		ind, err := updatesIndependentWith(c.Detect, u1, u2, opts)
		return ind.ok, ind.reason, err
	}
	val, err := c.lookup(key, "independence.cached", opts, func(copts SearchOptions) (any, bool, error) {
		ind, err := updatesIndependentWith(c.Detect, u1, u2, copts)
		return ind, ind.definitive, err
	})
	ind, _ := val.(independence)
	return ind.ok, ind.reason, err
}

// lookup answers key from the cache, or computes it: the first caller
// of a key leads and runs compute, later ones wait for its answer and
// count as hits. compute reports whether its answer is definitive;
// complete keeps only those. If the leader fails, its waiters retry and
// one of them leads. name labels the span a traced lookup records; the
// leader's computation nests under it.
func (c *DetectorCache) lookup(key cacheKey, name string, opts SearchOptions, compute func(SearchOptions) (any, bool, error)) (any, error) {
	rsp := span.FromContext(opts.Ctx)
	for {
		e, leader := c.acquire(key)
		if leader {
			copts := opts
			csp := rsp.Child(name)
			if csp != nil {
				csp.Set("disposition", "miss")
				copts.Ctx = span.Context(copts.Ctx, csp)
			}
			// The leader MUST complete the entry even if the computation
			// panics: waiters block on e.ready, and an uncontained panic
			// here would strand them forever. The recover turns the
			// defect into a typed *InternalError that fails only this
			// key.
			var keep bool
			val, err := func() (val any, err error) {
				defer ContainPanic("cache.leader", opts.Stats, &err)
				if ferr := faultinject.Fire("core.cache.leader"); ferr != nil {
					return nil, fmt.Errorf("core: cache leader: %w", ferr)
				}
				val, keep, err = compute(copts)
				return val, err
			}()
			c.complete(e, val, keep, err)
			csp.Fail(err)
			csp.End()
			if err != nil {
				var ie *InternalError
				if errors.As(err, &ie) && c.m != nil && c.m != opts.Stats {
					c.m.Add("detect.panics", 1)
				}
				return val, err
			}
			c.record(&c.misses, "detector_cache.misses", opts)
			return val, nil
		}
		var csp *span.Span
		if rsp != nil {
			// Distinguish an already-published answer (hit) from joining
			// an in-flight computation (leader-wait); the span's duration
			// is the wait.
			disposition := "leader-wait"
			select {
			case <-e.ready:
				disposition = "hit"
			default:
			}
			csp = rsp.Child(name)
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
			return nil, err
		}
		csp.End()
		if e.err == nil {
			c.record(&c.hits, "detector_cache.hits", opts)
			return e.val, nil
		}
		// The leading computation failed (possibly its caller's context,
		// not ours) and its entry was evicted: try again as leader.
	}
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
// callers), and answers that are not definitive must not be served from
// cache for the process lifetime — a budget-starved "no conflict" or
// "not proven" would otherwise masquerade as definitive to every later
// caller — so in both cases the entry is evicted before waiters are
// released. Waiters still receive this computation's outcome; only
// FUTURE lookups recompute.
func (c *DetectorCache) complete(e *cacheEntry, val any, keep bool, err error) {
	c.mu.Lock()
	e.val, e.err = val, err
	e.done = true
	if err != nil || !keep {
		if el, ok := c.entries[e.key]; ok && el.Value.(*cacheEntry) == e {
			c.lru.Remove(el)
			delete(c.entries, e.key)
		}
	}
	c.mu.Unlock()
	close(e.ready)
}

// Len returns the number of cached answers (including in-flight ones).
func (c *DetectorCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// cacheKey is the SHA-256 of a query's canonical text.
type cacheKey [sha256.Size]byte

// keyBufSize is the key text detectKey and independenceKey build on the
// stack; a longer text moves to the heap.
const keyBufSize = 256

// detectKey canonicalizes a detection query. The second result is false
// for update implementations outside ops.Insert/ops.Delete, which have
// no canonical form.
func detectKey(r ops.Read, u ops.Update, sem ops.Semantics, opts SearchOptions) (cacheKey, bool) {
	var buf [keyBufSize]byte
	b := append(buf[:0], r.P.String()...)
	b = append(b, 0)
	b, ok := appendUpdateKey(b, u)
	if !ok {
		return cacheKey{}, false
	}
	b = append(b, 0)
	b = append(b, sem.String()...)
	b = append(b, 0)
	b = appendBoundsKey(b, opts)
	return sha256.Sum256(b), true
}

// independenceKey canonicalizes an UpdatesIndependent query: the
// ordered pair's updates and the cross-checks' defaulted bounds. Its
// text starts with "independent", and a detectKey text starts with a
// rendered pattern, which starts with '/', so the two never collide.
// The second result is false as detectKey's is.
func independenceKey(u1, u2 ops.Update, opts SearchOptions) (cacheKey, bool) {
	var buf [keyBufSize]byte
	b := append(buf[:0], "independent\x00"...)
	b, ok := appendUpdateKey(b, u1)
	if !ok {
		return cacheKey{}, false
	}
	b = append(b, 0)
	if b, ok = appendUpdateKey(b, u2); !ok {
		return cacheKey{}, false
	}
	b = append(b, 0)
	b = appendBoundsKey(b, independenceBounds(opts))
	return sha256.Sum256(b), true
}

// appendUpdateKey appends an update's canonical form: kind, pattern
// rendering, and (for inserts) the payload's isomorphism code. It
// reports false, having appended nothing, for update kinds it cannot
// canonicalize.
func appendUpdateKey(b []byte, u ops.Update) ([]byte, bool) {
	switch v := u.(type) {
	case ops.Insert:
		b = append(b, "insert\x00"...)
		b = append(b, v.P.String()...)
		b = append(b, 0)
		b = xmltree.AppendCode(b, v.X.Root())
	case *ops.Insert:
		return appendUpdateKey(b, *v)
	case ops.Delete:
		b = append(b, "delete\x00"...)
		b = append(b, v.P.String()...)
	case *ops.Delete:
		return appendUpdateKey(b, *v)
	default:
		return b, false
	}
	return b, true
}

// appendBoundsKey appends the search bounds that shape the verdict: node
// and candidate caps and any explicit alphabet. Telemetry channels and
// the context do not affect verdicts and stay out of the key.
func appendBoundsKey(b []byte, opts SearchOptions) []byte {
	b = strconv.AppendInt(b, int64(opts.MaxNodes), 10)
	b = append(b, 0)
	b = strconv.AppendInt(b, int64(opts.MaxCandidates), 10)
	for _, l := range opts.Labels {
		b = append(b, 0)
		b = append(b, l...)
	}
	return b
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
