package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGaugeTimer(t *testing.T) {
	m := New()
	m.Counter("c").Add(3)
	m.Counter("c").Inc()
	if got := m.Counter("c").Load(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	m.Add("c2", 7)
	if got := m.Counter("c2").Load(); got != 7 {
		t.Fatalf("Add shortcut = %d, want 7", got)
	}
	g := m.Gauge("g")
	g.Set(10)
	g.SetMax(5)
	if got := g.Load(); got != 10 {
		t.Fatalf("SetMax lowered the gauge: %d", got)
	}
	g.SetMax(12)
	if got := g.Load(); got != 12 {
		t.Fatalf("SetMax failed to raise: %d", got)
	}
	tm := m.Timer("t")
	tm.Observe(10 * time.Millisecond)
	tm.Observe(30 * time.Millisecond)
	if tm.Count() != 2 || tm.Total() != 40*time.Millisecond || tm.Mean() != 20*time.Millisecond {
		t.Fatalf("timer stats: count=%d total=%v mean=%v", tm.Count(), tm.Total(), tm.Mean())
	}
	stop := m.Timer("t2").Start()
	stop()
	if m.Timer("t2").Count() != 1 {
		t.Fatalf("Start/stop did not observe")
	}
}

func TestNilSafety(t *testing.T) {
	var m *Metrics
	// None of these may panic, and lookups on the nil registry must
	// return usable nil instruments.
	m.Counter("x").Add(1)
	m.Add("x", 1)
	m.Gauge("x").Set(1)
	m.Gauge("x").SetMax(1)
	m.Timer("x").Observe(time.Second)
	m.Timer("x").Start()()
	if m.Publish("telemetry-test-nil") {
		t.Fatal("nil registry must not publish")
	}
	if s := m.Snapshot(); len(s.Counters) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	var c *Counter
	c.Add(1)
	if c.Load() != 0 {
		t.Fatal("nil counter")
	}
	var g *Gauge
	g.Set(1)
	g.SetMax(1)
	if g.Load() != 0 {
		t.Fatal("nil gauge")
	}
	var tm *Timer
	tm.Observe(time.Second)
	tm.Start()()
	if tm.Count() != 0 || tm.Total() != 0 || tm.Mean() != 0 || tm.Quantile(0.5) != 0 {
		t.Fatal("nil timer")
	}
}

func TestTimerQuantiles(t *testing.T) {
	tm := &Timer{}
	for i := 1; i <= 100; i++ {
		tm.Observe(time.Duration(i) * time.Millisecond)
	}
	p50 := tm.Quantile(0.5)
	if p50 < 50*time.Millisecond || p50 > 57*time.Millisecond {
		t.Fatalf("p50 = %v", p50)
	}
	p99 := tm.Quantile(0.99)
	if p99 < 99*time.Millisecond || p99 > 112*time.Millisecond {
		t.Fatalf("p99 = %v", p99)
	}
	m := New()
	m.Timer("lat").Observe(10 * time.Millisecond)
	ts := m.Snapshot().Timers["lat"]
	if ts.P50 != 10*time.Millisecond || ts.P99 != 10*time.Millisecond {
		t.Fatalf("snapshot timer quantiles: %+v", ts)
	}
}

func TestSnapshotAndString(t *testing.T) {
	m := New()
	m.Add("b.count", 2)
	m.Add("a.count", 1)
	m.Gauge("depth").Set(9)
	m.Timer("phase").Observe(time.Millisecond)
	s := m.Snapshot()
	if s.Counter("a.count") != 1 || s.Counter("missing") != 0 {
		t.Fatalf("snapshot counters: %+v", s.Counters)
	}
	out := s.String()
	for _, want := range []string{"a.count", "b.count", "depth", "phase"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() missing %q:\n%s", want, out)
		}
	}
	// Sorted: a.count before b.count.
	if strings.Index(out, "a.count") > strings.Index(out, "b.count") {
		t.Fatalf("String() not sorted:\n%s", out)
	}
	// Snapshot is a copy: later updates must not appear.
	m.Add("a.count", 100)
	if s.Counter("a.count") != 1 {
		t.Fatal("snapshot aliased live registry")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Counter("n").Inc()
				m.Gauge("max").SetMax(int64(j))
				m.Timer("t").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("n").Load(); got != 8000 {
		t.Fatalf("lost counter updates: %d", got)
	}
	if got := m.Gauge("max").Load(); got != 999 {
		t.Fatalf("gauge max = %d", got)
	}
	if got := m.Timer("t").Count(); got != 8000 {
		t.Fatalf("lost timer updates: %d", got)
	}
}

// publishRuns numbers the runs of TestPublish: expvar registrations
// last for the whole process, so each run (go test -count=N) needs a
// name no earlier run has taken.
var publishRuns atomic.Int64

func TestPublish(t *testing.T) {
	name := fmt.Sprintf("telemetry-test-publish-%d", publishRuns.Add(1))
	m := New()
	m.Add("hits", 5)
	if !m.Publish(name) {
		t.Fatal("first Publish under a fresh name must report true")
	}
	// Publishing a second registry under the same name is a reported
	// no-op, not a panic: the caller learns its registry is NOT the one
	// being served.
	if New().Publish(name) {
		t.Fatal("colliding Publish must report false")
	}
	// Re-publishing the same registry is also a collision by expvar's
	// rules; the variable keeps serving the original registration.
	if m.Publish(name) {
		t.Fatal("duplicate Publish of the same registry must report false")
	}
	v := expvar.Get(name)
	if v == nil {
		t.Fatal("expvar not registered")
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(v.String()), &s); err != nil {
		t.Fatalf("expvar JSON: %v", err)
	}
	if s.Counter("hits") != 5 {
		t.Fatalf("expvar snapshot: %+v", s)
	}
}

// TestLabeledViews: a labeled view writes into the parent registry
// under name|k=v keys, views compose, and label values are sanitized
// so they cannot forge the |-separated series encoding.
func TestLabeledViews(t *testing.T) {
	m := New()
	m.Labeled("shard", "0").Add("store.appends", 2)
	m.Labeled("shard", "1").Add("store.appends", 5)
	m.Add("store.appends", 1) // unlabeled series is distinct

	s := m.Snapshot()
	if s.Counter("store.appends") != 1 ||
		s.Counter("store.appends|shard=0") != 2 ||
		s.Counter("store.appends|shard=1") != 5 {
		t.Fatalf("labeled counters: %+v", s.Counters)
	}

	// Views compose: Labeled on a view accumulates pairs on the root.
	m.Labeled("shard", "0").Labeled("tenant", "acme").Gauge("tenant.inflight").Set(3)
	if got := m.Gauge("tenant.inflight|shard=0,tenant=acme").Load(); got != 3 {
		t.Fatalf("composed labels: gauge = %d", got)
	}

	// The same series is shared between the view and the root key.
	v := m.Labeled("shard", "1")
	v.Counter("store.appends").Inc()
	if got := m.Counter("store.appends|shard=1").Load(); got != 6 {
		t.Fatalf("view and root diverged: %d", got)
	}

	// Hostile label values cannot split series or break parsing.
	m.Labeled("tenant", `a|b,c=d"e`).Add("tenant.requests", 1)
	if got := m.Counter("tenant.requests|tenant=a_b_c_d_e").Load(); got != 1 {
		t.Fatalf("unsanitized label leaked: %+v", m.Snapshot().Counters)
	}

	// Nil receivers stay nil-safe through Labeled.
	var nilM *Metrics
	nilM.Labeled("shard", "9").Add("x", 1)
	nilM.Labeled("shard", "9").Timer("t").Observe(time.Millisecond)
}

func TestSplitLabels(t *testing.T) {
	for _, tc := range []struct {
		in, base string
		pairs    [][2]string
	}{
		{"store.appends", "store.appends", nil},
		{"store.appends|shard=0", "store.appends", [][2]string{{"shard", "0"}}},
		{"t.x|shard=2,tenant=acme", "t.x", [][2]string{{"shard", "2"}, {"tenant", "acme"}}},
	} {
		base, pairs := SplitLabels(tc.in)
		if base != tc.base {
			t.Fatalf("SplitLabels(%q) base = %q, want %q", tc.in, base, tc.base)
		}
		if len(pairs) != len(tc.pairs) {
			t.Fatalf("SplitLabels(%q) pairs = %v, want %v", tc.in, pairs, tc.pairs)
		}
		for i := range pairs {
			if pairs[i] != tc.pairs[i] {
				t.Fatalf("SplitLabels(%q) pair %d = %v, want %v", tc.in, i, pairs[i], tc.pairs[i])
			}
		}
	}
}
