package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"xmlconflict/internal/ops"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// cachePairs is a small population of detection queries mixing linear
// reads, branching reads (NP search path), inserts, and deletes.
func cachePairs() []BatchItem {
	return []BatchItem{
		{R: ops.Read{P: xpath.MustParse("a[q]/b")}, U: ops.Insert{P: xpath.MustParse("a"), X: xmltree.MustParse("<b/>")}, Sem: ops.NodeSemantics},
		{R: ops.Read{P: xpath.MustParse("/a/b")}, U: ops.Delete{P: xpath.MustParse("/a/b")}, Sem: ops.NodeSemantics},
		{R: ops.Read{P: xpath.MustParse("a[c][d]/b")}, U: ops.Delete{P: xpath.MustParse("a/b")}, Sem: ops.ValueSemantics},
		{R: ops.Read{P: xpath.MustParse("//x")}, U: ops.Insert{P: xpath.MustParse("/r"), X: xmltree.MustParse("<x/>")}, Sem: ops.ValueSemantics},
		{R: ops.Read{P: xpath.MustParse("a[q]/b")}, U: ops.Delete{P: xpath.MustParse("a/*")}, Sem: ops.NodeSemantics},
	}
}

func verdictEqual(a, b Verdict) bool {
	if a.Conflict != b.Conflict || a.Method != b.Method || a.Complete != b.Complete ||
		a.Detail != b.Detail || a.Edge != b.Edge || a.Candidates != b.Candidates {
		return false
	}
	if (a.Witness == nil) != (b.Witness == nil) {
		return false
	}
	if a.Witness != nil && xmltree.Code(a.Witness.Root()) != xmltree.Code(b.Witness.Root()) {
		return false
	}
	return true
}

func TestDetectorCacheMatchesDirectDetect(t *testing.T) {
	c := NewDetectorCache(0)
	opts := SearchOptions{MaxNodes: 5, MaxCandidates: 20_000}
	for i, p := range cachePairs() {
		want, err := Detect(p.R, p.U, p.Sem, opts)
		if err != nil {
			t.Fatalf("pair %d: direct: %v", i, err)
		}
		for round := 0; round < 3; round++ {
			got, err := c.Detect(p.R, p.U, p.Sem, opts)
			if err != nil {
				t.Fatalf("pair %d round %d: cached: %v", i, round, err)
			}
			if !verdictEqual(got, want) {
				t.Fatalf("pair %d round %d: cached verdict %+v != direct %+v", i, round, got, want)
			}
		}
	}
	hits, misses := c.Counts()
	n := int64(len(cachePairs()))
	if misses != n || hits != 2*n {
		t.Fatalf("counts = %d hits / %d misses, want %d / %d", hits, misses, 2*n, n)
	}
}

func TestDetectorCacheHitsAcrossEquivalentPatternObjects(t *testing.T) {
	c := NewDetectorCache(0)
	opts := SearchOptions{MaxNodes: 5, MaxCandidates: 20_000}
	// Same query spelled by distinct pattern objects, with predicates in
	// either order: the canonical key must coincide.
	r1 := ops.Read{P: xpath.MustParse("a[c][d]/b")}
	r2 := ops.Read{P: xpath.MustParse("a[d][c]/b")}
	u := ops.Delete{P: xpath.MustParse("a/b")}
	v1, err := c.Detect(r1, u, ops.NodeSemantics, opts)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.Detect(r2, ops.Delete{P: xpath.MustParse("a/b")}, ops.NodeSemantics, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !verdictEqual(v1, v2) {
		t.Fatalf("equivalent queries got different verdicts: %+v vs %+v", v1, v2)
	}
	if hits, misses := c.Counts(); hits != 1 || misses != 1 {
		t.Fatalf("counts = %d hits / %d misses, want 1 / 1", hits, misses)
	}
}

func TestDetectorCacheLRUEviction(t *testing.T) {
	c := NewDetectorCache(2)
	opts := SearchOptions{MaxNodes: 4, MaxCandidates: 10_000}
	reads := []ops.Read{
		{P: xpath.MustParse("/a/b")},
		{P: xpath.MustParse("/a/c")},
		{P: xpath.MustParse("/a/d")},
	}
	u := ops.Delete{P: xpath.MustParse("/a/*")}
	for _, r := range reads {
		if _, err := c.Detect(r, u, ops.NodeSemantics, opts); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d after overflow, want capacity 2", got)
	}
	// reads[0] was least recently used and must have been evicted: probing
	// it again is a miss; reads[2] is still resident: a hit.
	if _, err := c.Detect(reads[2], u, ops.NodeSemantics, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Detect(reads[0], u, ops.NodeSemantics, opts); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Counts(); hits != 1 || misses != 4 {
		t.Fatalf("counts = %d hits / %d misses, want 1 / 4", hits, misses)
	}
}

// TestDetectorCacheConcurrent hammers one cache from many goroutines
// (run under -race) and asserts the counters balance and every verdict
// matches the sequential one.
func TestDetectorCacheConcurrent(t *testing.T) {
	pairs := cachePairs()
	opts := SearchOptions{MaxNodes: 5, MaxCandidates: 20_000}
	want := make([]Verdict, len(pairs))
	for i, p := range pairs {
		v, err := Detect(p.R, p.U, p.Sem, opts)
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		want[i] = v
	}

	c := NewDetectorCache(0)
	const goroutines = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				i := (g + round) % len(pairs)
				v, err := c.Detect(pairs[i].R, pairs[i].U, pairs[i].Sem, opts)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d pair %d: %w", g, i, err)
					return
				}
				if !verdictEqual(v, want[i]) {
					errs <- fmt.Errorf("goroutine %d pair %d: verdict %+v != sequential %+v", g, i, v, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses := c.Counts()
	if hits+misses != goroutines*rounds {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d calls", hits, misses, hits+misses, goroutines*rounds)
	}
	// No evictions at this capacity, so each distinct key was computed
	// exactly once no matter how the goroutines interleaved.
	if misses != int64(len(pairs)) {
		t.Fatalf("misses = %d, want one per distinct key (%d)", misses, len(pairs))
	}
}

func TestDetectorCacheInstrument(t *testing.T) {
	c := NewDetectorCache(0)
	m := telemetry.New()
	c.Instrument(m)
	opts := SearchOptions{MaxNodes: 4, MaxCandidates: 10_000}
	r := ops.Read{P: xpath.MustParse("/a/b")}
	u := ops.Delete{P: xpath.MustParse("/a/b")}
	for i := 0; i < 3; i++ {
		if _, err := c.Detect(r, u, ops.NodeSemantics, opts); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Counter("detector_cache.misses").Load(); got != 1 {
		t.Fatalf("detector_cache.misses = %d, want 1", got)
	}
	if got := m.Counter("detector_cache.hits").Load(); got != 2 {
		t.Fatalf("detector_cache.hits = %d, want 2", got)
	}
}

func TestDetectorCacheCanceledContext(t *testing.T) {
	c := NewDetectorCache(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := SearchOptions{MaxNodes: 6, MaxCandidates: 200_000}.WithContext(ctx)
	r := ops.Read{P: xpath.MustParse("a[b][c]/d")}
	u := ops.Insert{P: xpath.MustParse("a"), X: xmltree.MustParse("<e/>")}
	if _, err := c.Detect(r, u, ops.NodeSemantics, opts); err == nil {
		t.Fatal("expected cancellation error")
	}
	// The canceled leader must not poison the key: a fresh call succeeds.
	if _, err := c.Detect(r, u, ops.NodeSemantics, SearchOptions{MaxNodes: 6, MaxCandidates: 200_000}); err != nil {
		t.Fatalf("after canceled leader: %v", err)
	}
}

func TestDetectBatchMatchesIndividualDetects(t *testing.T) {
	pairs := cachePairs()
	opts := SearchOptions{MaxNodes: 5, MaxCandidates: 20_000}
	want := make([]Verdict, len(pairs))
	for i, p := range pairs {
		v, err := Detect(p.R, p.U, p.Sem, opts)
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		want[i] = v
	}
	// Repeat the population so the batch exercises cache hits too.
	items := append(append([]BatchItem{}, pairs...), pairs...)
	for _, workers := range []int{1, 4} {
		got, err := DetectBatch(items, opts, workers, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(items) {
			t.Fatalf("workers=%d: %d verdicts, want %d", workers, len(got), len(items))
		}
		for i, v := range got {
			if !verdictEqual(v, want[i%len(pairs)]) {
				t.Fatalf("workers=%d item %d: verdict %+v != sequential %+v", workers, i, v, want[i%len(pairs)])
			}
		}
	}
}

func TestDetectBatchSharedCacheAndErrors(t *testing.T) {
	opts := SearchOptions{MaxNodes: 4, MaxCandidates: 10_000}
	cache := NewDetectorCache(0)
	items := []BatchItem{
		{R: ops.Read{P: xpath.MustParse("/a/b")}, U: ops.Delete{P: xpath.MustParse("/a/b")}, Sem: ops.NodeSemantics},
		{R: ops.Read{P: xpath.MustParse("/a/b")}, U: ops.Delete{P: xpath.MustParse("/a/b")}, Sem: ops.NodeSemantics},
	}
	if _, err := DetectBatch(items, opts, 2, cache); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Counts(); hits+misses != 2 || misses != 1 {
		t.Fatalf("counts = %d hits / %d misses, want 1 / 1", hits, misses)
	}
}

// TestDetectorCacheEntrySizeIgnoresPayload: entries are keyed by a hash
// of the pair's canonical text, so 300 distinct no-conflict pairs against
// one ~200 KB payload hold under 1 MiB in the cache.
func TestDetectorCacheEntrySizeIgnoresPayload(t *testing.T) {
	x := xmltree.New("p")
	for x.Size() < 6000 {
		x.AddChild(x.Root(), "payload-entry-with-a-long-label")
	}
	if n := len(xmltree.Code(x.Root())); n < 190_000 {
		t.Fatalf("payload code is %d bytes, want ~200 KB", n)
	}
	ins := ops.Insert{P: xpath.MustParse("/s"), X: x}
	reads := make([]ops.Read, 300)
	for i := range reads {
		reads[i] = ops.Read{P: xpath.MustParse(fmt.Sprintf("/r/a%d", i))}
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	c := NewDetectorCache(0)
	before := liveHeap()
	for _, r := range reads {
		v, err := c.Detect(r, ins, ops.NodeSemantics, SearchOptions{})
		if err != nil || v.Conflict || !v.Complete {
			t.Fatalf("%s: verdict %v, err %v; want a complete no-conflict", r.P, v, err)
		}
	}
	after := liveHeap()
	if c.Len() != len(reads) {
		t.Fatalf("cache holds %d entries, want %d", c.Len(), len(reads))
	}
	grew := int64(after) - int64(before)
	t.Logf("%d entries grew the live heap by %d bytes", c.Len(), grew)
	if grew > 1<<20 {
		t.Fatalf("cache grew the live heap by %d bytes, want under 1 MiB", grew)
	}
	runtime.KeepAlive(c)
	runtime.KeepAlive(reads)
}

// TestDetectorCacheUpdatesIndependentMatchesDirect: on every ordered
// pair of the conformance corpus's updates, the cache's first answer and
// its next one equal core.UpdatesIndependent's. Pairs with a branching
// update run under a small MaxCandidates, so their cross-checks search
// and some stop short of a proof: the cache must recompute those, and
// serve every other answer from its entry.
func TestDetectorCacheUpdatesIndependentMatchesDirect(t *testing.T) {
	var updates []ops.Update
	seen := map[string]bool{}
	for _, cc := range conformanceCorpus {
		var u ops.Update
		if cc.ins != "" {
			u = ops.Insert{P: xpath.MustParse(cc.ins), X: xmltree.MustParse(cc.x)}
		} else {
			u = ops.Delete{P: xpath.MustParse(cc.del)}
		}
		if k := cc.ins + "," + cc.x + "," + cc.del; !seen[k] {
			seen[k] = true
			updates = append(updates, u)
		}
	}
	c := NewDetectorCache(0)
	var kept, recomputed, branching int
	for _, u1 := range updates {
		for _, u2 := range updates {
			opts := SearchOptions{}
			if !u1.Pattern().IsLinear() || !u2.Pattern().IsLinear() {
				opts = SearchOptions{MaxNodes: 4, MaxCandidates: 64}
				branching++
			}
			wantOK, wantReason, wantErr := UpdatesIndependent(u1, u2, opts)
			for ask := 0; ask < 2; ask++ {
				hits, misses := c.Counts()
				ok, reason, err := c.UpdatesIndependent(u1, u2, opts)
				if ok != wantOK || reason != wantReason || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s, %s ask %d: cached (%v, %q, %v), direct (%v, %q, %v)",
						u1.Pattern(), u2.Pattern(), ask, ok, reason, err, wantOK, wantReason, wantErr)
				}
				if ask == 0 {
					continue
				}
				h, m := c.Counts()
				switch {
				case h == hits+1 && m == misses:
					kept++
				case reason == "independence not proven (incomplete search)" && m > misses:
					recomputed++
				default:
					t.Fatalf("%s, %s: second ask (%v, %q) moved hits %d→%d, misses %d→%d",
						u1.Pattern(), u2.Pattern(), ok, reason, hits, h, misses, m)
				}
			}
		}
	}
	t.Logf("%d updates, %d pairs (%d branching): %d answers kept, %d recomputed", len(updates), kept+recomputed, branching, kept, recomputed)
	if recomputed == 0 || branching == 0 {
		t.Fatalf("no pair exercised the branching cross-checks or a not-proven answer (%d branching, %d recomputed)", branching, recomputed)
	}
}

// BenchmarkUpdatesIndependent is a cache hit for an insert–delete pair:
// the lookup a store's admission screen makes per window entry.
func BenchmarkUpdatesIndependent(b *testing.B) {
	c := NewDetectorCache(0)
	ins := ops.Insert{P: xpath.MustParse("/log/s0/b1"), X: xmltree.MustParse("<n><v/></n>")}
	del := ops.Delete{P: xpath.MustParse("/log/s0/b3/n")}
	if ok, reason, err := c.UpdatesIndependent(ins, del, SearchOptions{}); err != nil || !ok {
		b.Fatalf("insert–delete pair: independent %v (%s), err %v", ok, reason, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _, err := c.UpdatesIndependent(ins, del, SearchOptions{}); err != nil || !ok {
			b.Fatal("cached answer changed")
		}
	}
}
