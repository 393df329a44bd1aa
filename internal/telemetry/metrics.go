// Package telemetry is the zero-dependency observability substrate of the
// conflict-detection engine: atomic counters/gauges/timers collected in a
// Metrics registry (snapshot-able and exportable via expvar), and a
// throttled progress reporter for long-running searches (Progress). Timing
// and the engine's decisions are recorded on spans (package span).
//
// Everything is safe for concurrent use, and every hot-path entry point is
// nil-receiver-safe: instrumented code holds a possibly-nil handle and
// pays a single pointer check when telemetry is disabled.
package telemetry

import (
	"expvar"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The nil *Counter
// discards all updates.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 for the nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The nil *Gauge discards all
// updates.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if v exceeds the current value.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value (0 for the nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Timer accumulates durations into a log-bucketed Histogram, so beyond
// count/total/mean it serves latency quantiles (p50/p90/p99). The nil
// *Timer discards all updates.
type Timer struct{ h Histogram }

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	if t != nil {
		t.h.ObserveDuration(d)
	}
}

// ObserveTraced records one duration carrying the trace ID that
// produced it as a max-latency exemplar (see Histogram.ObserveTraced).
func (t *Timer) ObserveTraced(d time.Duration, traceID string) {
	if t != nil {
		t.h.ObserveTraced(int64(d), traceID)
	}
}

// Start begins timing and returns a stop function that records the
// elapsed duration when called.
func (t *Timer) Start() func() {
	if t == nil {
		return func() {}
	}
	begin := time.Now()
	return func() { t.Observe(time.Since(begin)) }
}

// Count returns the number of observations.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.h.Count()
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.h.Sum())
}

// Mean returns the average observed duration (0 with no observations).
func (t *Timer) Mean() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.h.Mean())
}

// Quantile returns the q-quantile of the observed durations (see
// Histogram.Quantile for the error bound).
func (t *Timer) Quantile(q float64) time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.h.Quantile(q))
}

// Hist exposes the timer's underlying histogram (nil for the nil timer),
// e.g. for exposition formats that want the raw distribution.
func (t *Timer) Hist() *Histogram {
	if t == nil {
		return nil
	}
	return &t.h
}

// Metrics is a registry of named counters, gauges, and timers, created
// lazily on first use. The nil *Metrics is a valid disabled registry:
// lookups return nil instruments, which in turn discard updates.
//
// Labeled returns a *view* of a registry that stamps a label pair onto
// every instrument name it touches ("store.appends" becomes
// "store.appends|shard=0"): the shard router hands each shard's store a
// labeled view of the shared registry, so per-shard series coexist in
// one /metrics exposition without the instrumented code knowing it was
// sharded. The label suffix uses '|' followed by comma-separated k=v
// pairs; obshttp renders it as a Prometheus label block.
type Metrics struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	timers     map[string]*Timer
	histograms map[string]*Histogram

	// parent/labels make this a labeled view: instruments live in the
	// parent's maps under label-suffixed names. Both are immutable after
	// Labeled returns the view, so only root registries take mu.
	parent *Metrics
	labels string
}

// New returns an empty registry.
func New() *Metrics { return &Metrics{} }

// root resolves a view to the registry that owns the instrument maps.
func (m *Metrics) root() *Metrics {
	if m.parent != nil {
		return m.parent
	}
	return m
}

// full appends the view's label suffix to an instrument name.
func (m *Metrics) full(name string) string {
	if m.labels == "" {
		return name
	}
	return name + "|" + m.labels
}

// Labeled returns a view of this registry that records every instrument
// under name|key=value (labels accumulate across nested views). The
// view shares the underlying storage: its series appear in the root's
// Snapshot and exposition alongside everything else. Label keys and
// values are sanitized so they cannot corrupt the name encoding.
func (m *Metrics) Labeled(key, value string) *Metrics {
	if m == nil {
		return nil
	}
	pair := sanitizeLabel(key) + "=" + sanitizeLabel(value)
	labels := pair
	if m.labels != "" {
		labels = m.labels + "," + pair
	}
	return &Metrics{parent: m.root(), labels: labels}
}

// sanitizeLabel strips the characters the name encoding reserves
// ('|', ',', '=', '"') plus whitespace, replacing them with '_'.
func sanitizeLabel(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '|', ',', '=', '"', ' ', '\t', '\n', '\r':
			b.WriteByte('_')
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// SplitLabels decodes an instrument name as stored by a labeled view:
// the base name plus the label pairs in recorded order. Names without a
// label suffix return nil pairs.
func SplitLabels(name string) (base string, pairs [][2]string) {
	i := strings.IndexByte(name, '|')
	if i < 0 {
		return name, nil
	}
	base = name[:i]
	for _, kv := range strings.Split(name[i+1:], ",") {
		if j := strings.IndexByte(kv, '='); j >= 0 {
			pairs = append(pairs, [2]string{kv[:j], kv[j+1:]})
		}
	}
	return base, pairs
}

// Counter returns the named counter, creating it on first use.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	name = m.full(name)
	m = m.root()
	m.mu.RLock()
	c := m.counters[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.counters == nil {
		m.counters = map[string]*Counter{}
	}
	if c = m.counters[name]; c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Add increments the named counter by n; a convenience for m.Counter(name).Add(n).
func (m *Metrics) Add(name string, n int64) { m.Counter(name).Add(n) }

// Gauge returns the named gauge, creating it on first use.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	name = m.full(name)
	m = m.root()
	m.mu.RLock()
	g := m.gauges[name]
	m.mu.RUnlock()
	if g != nil {
		return g
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gauges == nil {
		m.gauges = map[string]*Gauge{}
	}
	if g = m.gauges[name]; g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use.
func (m *Metrics) Timer(name string) *Timer {
	if m == nil {
		return nil
	}
	name = m.full(name)
	m = m.root()
	m.mu.RLock()
	t := m.timers[name]
	m.mu.RUnlock()
	if t != nil {
		return t
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.timers == nil {
		m.timers = map[string]*Timer{}
	}
	if t = m.timers[name]; t == nil {
		t = &Timer{}
		m.timers[name] = t
	}
	return t
}

// Histogram returns the named histogram, creating it on first use.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	name = m.full(name)
	m = m.root()
	m.mu.RLock()
	h := m.histograms[name]
	m.mu.RUnlock()
	if h != nil {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.histograms == nil {
		m.histograms = map[string]*Histogram{}
	}
	if h = m.histograms[name]; h == nil {
		h = &Histogram{}
		m.histograms[name] = h
	}
	return h
}

// TimerStats is the snapshot of one timer: totals plus latency
// quantiles drawn from the timer's histogram. MaxTraceID is the trace
// exemplar of the epoch-max observation, when one was recorded via
// ObserveTraced; Exemplar is that observation's duration (what the
// OpenMetrics exposition attaches alongside the trace ID).
type TimerStats struct {
	Count      int64         `json:"count"`
	Total      time.Duration `json:"total_ns"`
	Mean       time.Duration `json:"mean_ns"`
	P50        time.Duration `json:"p50_ns,omitempty"`
	P90        time.Duration `json:"p90_ns,omitempty"`
	P99        time.Duration `json:"p99_ns,omitempty"`
	Exemplar   time.Duration `json:"exemplar_ns,omitempty"`
	MaxTraceID string        `json:"max_trace_id,omitempty"`
}

// Snapshot is a point-in-time copy of a registry's values.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Timers     map[string]TimerStats     `json:"timers,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot copies the current values of every registered instrument.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Timers:     map[string]TimerStats{},
		Histograms: map[string]HistogramStats{},
	}
	if m == nil {
		return s
	}
	m = m.root()
	m.mu.RLock()
	defer m.mu.RUnlock()
	for name, c := range m.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range m.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, t := range m.timers {
		exVal, exTrace := t.h.MaxExemplar()
		s.Timers[name] = TimerStats{
			Count: t.Count(), Total: t.Total(), Mean: t.Mean(),
			P50: t.Quantile(0.50), P90: t.Quantile(0.90), P99: t.Quantile(0.99),
			Exemplar: time.Duration(exVal), MaxTraceID: exTrace,
		}
	}
	for name, h := range m.histograms {
		s.Histograms[name] = h.Stats()
	}
	return s
}

// Counter returns the snapshotted value of a counter (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// String renders the snapshot as sorted "name value" lines, one
// instrument per line, suitable for a -stats dump.
func (s Snapshot) String() string {
	var lines []string
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%-40s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%-40s %d", name, v))
	}
	for name, t := range s.Timers {
		lines = append(lines, fmt.Sprintf("%-40s %d obs, total %v, mean %v, p50 %v, p99 %v",
			name, t.Count, t.Total, t.Mean, t.P50, t.P99))
	}
	for name, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf("%-40s %d obs, mean %d, p50 %d, p90 %d, p99 %d, max %d",
			name, h.Count, h.Mean, h.P50, h.P90, h.P99, h.Max))
	}
	sort.Strings(lines)
	if len(lines) == 0 {
		return ""
	}
	return strings.Join(lines, "\n") + "\n"
}

var publishMu sync.Mutex

// Publish exports the registry under the given expvar name; subsequent
// reads of the variable serve live snapshots. The first registry
// published under a name wins (expvar forbids re-registration): Publish
// reports whether THIS registry was registered, so callers can detect a
// name collision instead of silently scraping someone else's metrics.
// The nil registry publishes nothing and reports false.
func (m *Metrics) Publish(name string) bool {
	if m == nil {
		return false
	}
	m = m.root()
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) != nil {
		return false
	}
	expvar.Publish(name, expvar.Func(func() any { return m.Snapshot() }))
	return true
}
