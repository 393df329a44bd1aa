package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlconflict/internal/store"
	"xmlconflict/internal/telemetry"
)

// openTest opens a router over a temp dir and closes it with the test.
func openTest(t *testing.T, dir string, opts Options) *Router {
	t.Helper()
	r, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// docOnShard finds a document name the router maps to the given shard.
func docOnShard(t *testing.T, r *Router, shard int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("doc-%d", i)
		if r.ShardFor(name) == shard {
			return name
		}
	}
	t.Fatalf("no doc name found for shard %d", shard)
	return ""
}

func TestRoutingIsDeterministicAndCoversAllShards(t *testing.T) {
	r := openTest(t, t.TempDir(), Options{Shards: 4})
	seen := map[int]int{}
	for i := 0; i < 4000; i++ {
		name := fmt.Sprintf("doc-%d", i)
		s1, s2 := r.ShardFor(name), r.ShardFor(name)
		if s1 != s2 {
			t.Fatalf("ShardFor(%q) unstable: %d then %d", name, s1, s2)
		}
		if s1 < 0 || s1 >= 4 {
			t.Fatalf("ShardFor(%q) = %d out of range", name, s1)
		}
		seen[s1]++
	}
	for i := 0; i < 4; i++ {
		if seen[i] == 0 {
			t.Fatalf("shard %d owns no documents out of 4000: %v", i, seen)
		}
	}
}

func TestRoutedOpsLandOnOwningStore(t *testing.T) {
	r := openTest(t, t.TempDir(), Options{Shards: 3})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		id := docOnShard(t, r, i)
		if _, err := r.CreateCtx(ctx, id, "<a/>"); err != nil {
			t.Fatalf("create %s: %v", id, err)
		}
		// The owning store holds it; the others must not.
		for j := 0; j < 3; j++ {
			_, err := r.Store(j).Get(id)
			if j == i && err != nil {
				t.Fatalf("shard %d should own %s: %v", j, id, err)
			}
			if j != i && !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("shard %d unexpectedly knows %s (err=%v)", j, id, err)
			}
		}
		if _, err := r.SubmitCtx(ctx, id, store.Op{Kind: "insert", Pattern: "/a", X: "<x/>"}); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
		if _, err := r.Get(id); err != nil {
			t.Fatalf("router Get %s: %v", id, err)
		}
	}
	ids := r.Docs()
	if len(ids) != 3 {
		t.Fatalf("Docs() = %v, want 3 ids", ids)
	}
	// Closed shards answer nothing.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if ids := r.Docs(); len(ids) != 0 {
		t.Fatalf("Docs() after Close = %v, want none", ids)
	}
}

func TestManifestRefusesShardCountChange(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := Open(dir, Options{Shards: 2}); err == nil {
		t.Fatal("reopen with a different shard count succeeded; documents would misroute")
	}
	r2, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatalf("reopen with matching count: %v", err)
	}
	r2.Close()
}

// TestManifestTruncationRefusesToOpen cuts a valid shards.json at
// every byte: no prefix may open. A crash mid-write (without the
// temp+rename discipline) or a torn copy must refuse loudly — guessing
// a layout routes documents to the wrong WAL, which is silent loss.
func TestManifestTruncationRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	path := filepath.Join(dir, manifestName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Up to len-2: the final bytes are "}\n", and the cut at len-1 keeps
	// the closing brace — a complete (if newline-less) manifest.
	for i := 1; i < len(full)-1; i++ {
		if err := os.WriteFile(path, full[:i], 0o644); err != nil {
			t.Fatal(err)
		}
		if r2, err := Open(dir, Options{Shards: 2}); err == nil {
			r2.Close()
			t.Fatalf("opened with %s truncated to %d of %d bytes", manifestName, i, len(full))
		}
	}
	// The intact manifest still opens: the strictness rejects damage,
	// not age.
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	r3, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatalf("reopen after restore: %v", err)
	}
	r3.Close()
}

func TestManifestRejectsStructuralGarbage(t *testing.T) {
	cases := []struct{ name, content, wantSub string }{
		{"empty-file", "", "corrupt or half-written"},
		{"not-json", "not a manifest", "corrupt or half-written"},
		{"wrong-version", `{"version":2,"shards":2,"scheme":"crc32c-ring/v1"}`, "version"},
		{"zero-shards", `{"version":1,"shards":0,"scheme":"crc32c-ring/v1"}`, "corrupt or half-written"},
		{"negative-shards", `{"version":1,"shards":-3,"scheme":"crc32c-ring/v1"}`, "corrupt or half-written"},
		{"no-scheme", `{"version":1,"shards":2}`, "no hash scheme"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(c.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(dir, Options{Shards: 2})
			if err == nil {
				t.Fatal("opened over a damaged manifest")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not name the damage (%q)", err, c.wantSub)
			}
		})
	}
}

func TestLegacyUnshardedDirectory(t *testing.T) {
	dir := t.TempDir()
	// A pre-sharding store rooted at dir, as PR 5 laid it out.
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create("legacy-doc", "<a/>"); err != nil {
		t.Fatal(err)
	}
	st.Close()

	if _, err := Open(dir, Options{Shards: 4}); err == nil {
		t.Fatal("sharded open over a legacy store succeeded; its documents would be unreachable")
	}
	r := openTest(t, dir, Options{Shards: 1})
	if _, err := r.Get("legacy-doc"); err != nil {
		t.Fatalf("legacy document lost after shard.Open: %v", err)
	}
}

func TestCrossShardListDeterminism(t *testing.T) {
	r := openTest(t, t.TempDir(), Options{Shards: 4})
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		if _, err := r.CreateCtx(ctx, id, "<a/>"); err != nil {
			t.Fatal(err)
		}
	}
	first, err := r.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(first) != 40 {
		t.Fatalf("List returned %d entries, want 40", len(first))
	}
	for i := 1; i < len(first); i++ {
		if first[i-1].Doc >= first[i].Doc {
			t.Fatalf("listing not sorted: %q before %q", first[i-1].Doc, first[i].Doc)
		}
	}
	for _, e := range first {
		if e.Shard != r.ShardFor(e.Doc) {
			t.Fatalf("entry %q reports shard %d, router says %d", e.Doc, e.Shard, r.ShardFor(e.Doc))
		}
	}
	// The gather must be deterministic run over run, whatever order the
	// per-shard goroutines finish in.
	for rep := 0; rep < 10; rep++ {
		again, err := r.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(first) {
			t.Fatalf("rep %d: %d entries, want %d", rep, len(again), len(first))
		}
		for i := range again {
			if again[i] != first[i] {
				t.Fatalf("rep %d: entry %d drifted: %+v vs %+v", rep, i, again[i], first[i])
			}
		}
	}
}

func TestPerShardMetricsLabeled(t *testing.T) {
	m := telemetry.New()
	r := openTest(t, t.TempDir(), Options{Shards: 2, Store: store.Options{Metrics: m}})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := r.CreateCtx(ctx, docOnShard(t, r, i), "<a/>"); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	for i := 0; i < 2; i++ {
		key := fmt.Sprintf("store.appends|shard=%d", i)
		if snap.Counter(key) == 0 {
			t.Fatalf("no %s series after a create on shard %d; counters: %v", key, i, snap.Counters)
		}
	}
}

// TestFsyncTimedBySpansOnly: every fsync is issued by a waiting request
// and timed by that request's store.fsync span, so no shard registry
// holds a hand-placed store.fsync timer and no fsync is counted twice.
func TestFsyncTimedBySpansOnly(t *testing.T) {
	m := telemetry.New()
	r := openTest(t, t.TempDir(), Options{Shards: 2, Store: store.Options{Metrics: m, Fsync: store.FsyncAlways}})
	for i := 0; i < 2; i++ {
		if _, err := r.CreateCtx(context.Background(), docOnShard(t, r, i), "<a/>"); err != nil {
			t.Fatal(err)
		}
	}
	for key, ts := range m.Snapshot().Timers {
		if strings.HasPrefix(key, "store.fsync") {
			t.Errorf("%s timer recorded %d fsyncs; only spans time the fsync", key, ts.Count)
		}
	}
}

func TestSnapshotAllAndLSNs(t *testing.T) {
	r := openTest(t, t.TempDir(), Options{Shards: 3})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := r.CreateCtx(ctx, docOnShard(t, r, i), "<a/>"); err != nil {
			t.Fatal(err)
		}
	}
	lsns, err := r.SnapshotAll()
	if err != nil {
		t.Fatalf("SnapshotAll: %v", err)
	}
	if len(lsns) != 3 {
		t.Fatalf("SnapshotAll returned %d lsns, want 3", len(lsns))
	}
	for i, lsn := range lsns {
		if lsn == 0 {
			t.Fatalf("shard %d snapshot LSN 0 after a create", i)
		}
		if got := r.LSNs()[i]; got != lsn {
			t.Fatalf("shard %d: LSNs()=%d, snapshot said %d", i, got, lsn)
		}
	}
}

func TestTenantOf(t *testing.T) {
	cases := []struct{ header, doc, want string }{
		{"acme", "x--doc", "acme"},       // header wins
		{"", "acme--doc-1", "acme"},      // doc prefix
		{"", "--doc", DefaultTenant},     // empty prefix is no tenant
		{"", "plain-doc", DefaultTenant}, // no signal
		{"", "", DefaultTenant},
	}
	for _, c := range cases {
		if got := TenantOf(c.header, c.doc); got != c.want {
			t.Errorf("TenantOf(%q, %q) = %q, want %q", c.header, c.doc, got, c.want)
		}
	}
}

func TestTenantLimiterBoundsInflight(t *testing.T) {
	m := telemetry.New()
	l := NewTenantLimiter(2, m)
	rel1, err := l.Acquire("acme")
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := l.Acquire("acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Acquire("acme"); !errors.Is(err, ErrTenantLimit) {
		t.Fatalf("third acquire: %v, want ErrTenantLimit", err)
	}
	// Another tenant is unaffected: the limit is per tenant.
	relB, err := l.Acquire("beta")
	if err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	relB()
	rel1()
	rel3, err := l.Acquire("acme")
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	rel3()
	rel2()

	snap := m.Snapshot()
	if snap.Counter("tenant.requests|tenant=acme") != 4 {
		t.Fatalf("acme requests = %d, want 4", snap.Counter("tenant.requests|tenant=acme"))
	}
	if snap.Counter("tenant.rejected|tenant=acme") != 1 {
		t.Fatalf("acme rejected = %d, want 1", snap.Counter("tenant.rejected|tenant=acme"))
	}
	if got := snap.Gauges["tenant.inflight|tenant=acme"]; got != 0 {
		t.Fatalf("acme inflight gauge = %d after releases, want 0", got)
	}
}

func TestTenantLimiterZeroIsUnlimitedButCounted(t *testing.T) {
	m := telemetry.New()
	l := NewTenantLimiter(0, m)
	for i := 0; i < 50; i++ {
		rel, err := l.Acquire("acme")
		if err != nil {
			t.Fatal(err)
		}
		defer rel()
	}
	if n := m.Snapshot().Counter("tenant.requests|tenant=acme"); n != 50 {
		t.Fatalf("requests = %d, want 50", n)
	}
}

func TestTenantLimiterOverflowBucketWhenAllBusy(t *testing.T) {
	l := NewTenantLimiter(1, telemetry.New())
	l.mu.Lock()
	for i := 0; i < maxTrackedTenants; i++ {
		// Every tracked tenant is mid-flight: nothing is evictable, so
		// newcomers must share the overflow bucket.
		l.state(fmt.Sprintf("t%d", i)).inflight = 1
	}
	l.mu.Unlock()
	rel, err := l.Acquire("one-too-many")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if _, err := l.Acquire("another-fresh-tenant"); !errors.Is(err, ErrTenantLimit) {
		t.Fatalf("tenants past the cap must share the overflow allowance, got %v", err)
	}
	if _, ok := l.tenants["one-too-many"]; ok {
		t.Fatal("tenant past the cap was tracked individually")
	}
}

// TestTenantLimiterEvictsIdleAfterSpray is the regression for the
// permanent overflow fold: an id-spraying client used to fill the
// tracking table with dead states forever, wedging every later
// legitimate tenant into the shared overflow bucket (where one hot
// stranger's traffic would 429 them). Idle states are evicted instead.
func TestTenantLimiterEvictsIdleAfterSpray(t *testing.T) {
	m := telemetry.New()
	l := NewTenantLimiter(1, m)
	for i := 0; i < maxTrackedTenants+50; i++ {
		rel, err := l.Acquire(fmt.Sprintf("spray-%d", i))
		if err != nil {
			t.Fatalf("spray %d: %v", i, err)
		}
		rel()
	}
	l.mu.Lock()
	tracked := len(l.tenants)
	l.mu.Unlock()
	if tracked > maxTrackedTenants {
		t.Fatalf("%d tracked states after spray, cap %d", tracked, maxTrackedTenants)
	}
	// A legitimate tenant arriving after the spray gets its own
	// accounting and its own allowance, not the overflow bucket's.
	rel, err := l.Acquire("legit")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	l.mu.Lock()
	_, own := l.tenants["legit"]
	l.mu.Unlock()
	if !own {
		t.Fatal("post-spray tenant folded into overflow despite idle evictable states")
	}
	if _, err := l.Acquire("legit"); !errors.Is(err, ErrTenantLimit) {
		t.Fatalf("own allowance not enforced: %v", err)
	}
	if n := m.Snapshot().Counter("tenant.evicted"); n == 0 {
		t.Fatal("no evictions recorded")
	}
}

// TestTenantOfSanitizesHostileHeaders: X-Tenant is attacker-controlled
// and flows into metric labels and quota keys; anything malformed
// folds into the shared ~invalid bucket instead of minting
// per-payload series.
func TestTenantOfSanitizesHostileHeaders(t *testing.T) {
	long := strings.Repeat("a", maxTenantLen+1)
	cases := []struct{ header, doc, want string }{
		{"acme-1.prod_2", "", "acme-1.prod_2"}, // well-formed survives
		{strings.Repeat("a", maxTenantLen), "", strings.Repeat("a", maxTenantLen)},
		{long, "", invalidTenant},
		{"evil|tenant=x", "", invalidTenant},    // label separator injection
		{"a=b", "", invalidTenant},              // label assignment injection
		{"line\nbreak", "", invalidTenant},      // line protocol injection
		{"../../etc/passwd", "", invalidTenant}, // path chars
		{"tab\there", "", invalidTenant},        // control byte
		{"spa ce", "", invalidTenant},           // whitespace
		{"", "evil|t--doc", invalidTenant},      // hostile doc prefix too
		{"", long + "--doc", invalidTenant},     // oversized doc prefix
		{"", "fine.tenant--doc", "fine.tenant"}, // well-formed prefix survives
	}
	for _, c := range cases {
		if got := TenantOf(c.header, c.doc); got != c.want {
			t.Errorf("TenantOf(%q, %q) = %q, want %q", c.header, c.doc, got, c.want)
		}
	}
}

func TestLabeledMetricsSanitizeTenantNames(t *testing.T) {
	m := telemetry.New()
	l := NewTenantLimiter(0, m)
	rel, err := l.Acquire(`evil|tenant="x",y=z`)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	for name := range m.Snapshot().Counters {
		if strings.Count(name, "|") > 1 || strings.Contains(name, `"`) {
			t.Fatalf("unsanitized series name %q", name)
		}
	}
}
