package span

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Capture categories. A completed trace lands in the recent ring
// always, and additionally in one capture ring per condition it
// carries. Because the rings are separate, a slow or errored capture
// can only be evicted by a *newer* capture of the same kind — a storm
// of fast, healthy traffic never pushes forensics out.
const (
	CatSlow     = "slow"
	CatError    = "error"
	CatDegraded = "degraded"
	CatConflict = "conflict"
)

var captureCats = []string{CatSlow, CatError, CatDegraded, CatConflict}

// RecorderOptions tunes a FlightRecorder; zero values take defaults.
type RecorderOptions struct {
	// Recent is the size of the everything-ring (default 64).
	Recent int
	// Captures is the size of each per-category capture ring (default 32).
	Captures int
	// SlowThreshold marks traces at or above it as slow (default 100ms).
	SlowThreshold time.Duration
	// Dir, when non-empty, additionally writes every captured
	// (slow/error/degraded/conflict) trace as <trace_id>.json there.
	Dir string
}

// FlightRecorder keeps the last N completed traces plus per-category
// captures of the interesting ones. Recording cost is one snapshot of
// the finished trace plus a short critical section appending to the
// rings — no locking happens while a request is in flight.
type FlightRecorder struct {
	opts  RecorderOptions
	total atomic.Int64

	mu     sync.Mutex
	recent *ring
	byCat  map[string]*ring
}

// NewFlightRecorder returns a recorder with the given options.
func NewFlightRecorder(opts RecorderOptions) *FlightRecorder {
	if opts.Recent <= 0 {
		opts.Recent = 64
	}
	if opts.Captures <= 0 {
		opts.Captures = 32
	}
	if opts.SlowThreshold <= 0 {
		opts.SlowThreshold = 100 * time.Millisecond
	}
	r := &FlightRecorder{
		opts:   opts,
		recent: newRing(opts.Recent),
		byCat:  make(map[string]*ring, len(captureCats)),
	}
	for _, c := range captureCats {
		r.byCat[c] = newRing(opts.Captures)
	}
	return r
}

// Options returns the recorder's effective (defaulted) options.
func (r *FlightRecorder) Options() RecorderOptions {
	if r == nil {
		return RecorderOptions{}
	}
	return r.opts
}

// Record finishes t (idempotent), snapshots it, files the snapshot into
// the rings, and returns it, so a caller that also reads the finished
// trace does not snapshot it twice. The nil recorder and nil trace are
// no-ops that return the zero view.
func (r *FlightRecorder) Record(t *Trace) TraceView {
	if r == nil || t == nil {
		return TraceView{}
	}
	t.Finish()
	if t.Duration() >= r.opts.SlowThreshold {
		t.Flag(CatSlow)
	}
	v := t.View()
	r.total.Add(1)

	captured := false
	r.mu.Lock()
	r.recent.push(&v)
	for _, f := range v.Flags {
		if ring, ok := r.byCat[f]; ok {
			ring.push(&v)
			captured = true
		}
	}
	r.mu.Unlock()

	if captured && r.opts.Dir != "" {
		_ = writeTraceFile(r.opts.Dir, &v) // best effort: forensics must not fail the request
	}
	return v
}

// Get returns the snapshot of the trace with the given ID, searching
// capture rings first (they live longer), then the recent ring.
func (r *FlightRecorder) Get(id string) (TraceView, bool) {
	if r == nil {
		return TraceView{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range captureCats {
		if v := r.byCat[c].find(id); v != nil {
			return *v, true
		}
	}
	if v := r.recent.find(id); v != nil {
		return *v, true
	}
	return TraceView{}, false
}

// RecorderSnapshot is the /debug/requests list payload.
type RecorderSnapshot struct {
	// Total counts every trace ever recorded (including evicted ones).
	Total int64 `json:"total"`
	// SlowThresholdUs echoes the recorder's slow threshold.
	SlowThresholdUs int64 `json:"slow_threshold_us"`
	// Recent lists the last-completed traces, newest first.
	Recent []TraceSummary `json:"recent"`
	// Captures lists the per-category retained traces, newest first.
	Captures map[string][]TraceSummary `json:"captures"`
}

// List summarizes the recorder's current holdings, newest first.
func (r *FlightRecorder) List() RecorderSnapshot {
	snap := RecorderSnapshot{Captures: map[string][]TraceSummary{}}
	if r == nil {
		return snap
	}
	snap.Total = r.total.Load()
	snap.SlowThresholdUs = r.opts.SlowThreshold.Microseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	snap.Recent = r.recent.summaries()
	for _, c := range captureCats {
		if s := r.byCat[c].summaries(); len(s) > 0 {
			snap.Captures[c] = s
		}
	}
	return snap
}

// DumpDir writes every held trace (recent and captured) as
// <trace_id>.json under dir, creating it as needed. It returns the
// number written and the first error encountered.
func (r *FlightRecorder) DumpDir(dir string) (int, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	seen := map[string]*TraceView{}
	for _, v := range r.recent.all() {
		seen[v.TraceID] = v
	}
	for _, c := range captureCats {
		for _, v := range r.byCat[c].all() {
			seen[v.TraceID] = v
		}
	}
	r.mu.Unlock()

	if len(seen) == 0 {
		return 0, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var firstErr error
	n := 0
	for _, v := range seen {
		if err := writeTraceFile(dir, v); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		n++
	}
	return n, firstErr
}

func writeTraceFile(dir string, v *TraceView) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, v.TraceID+".json"), append(b, '\n'), 0o644)
}

// ring is a fixed-capacity overwrite-oldest buffer of trace snapshots.
type ring struct {
	buf  []*TraceView
	next int
	n    int
}

func newRing(capacity int) *ring { return &ring{buf: make([]*TraceView, capacity)} }

func (r *ring) push(v *TraceView) {
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// all returns held snapshots, newest first.
func (r *ring) all() []*TraceView {
	out := make([]*TraceView, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

func (r *ring) find(id string) *TraceView {
	for _, v := range r.all() {
		if v.TraceID == id {
			return v
		}
	}
	return nil
}

func (r *ring) summaries() []TraceSummary {
	vs := r.all()
	out := make([]TraceSummary, len(vs))
	for i, v := range vs {
		out[i] = v.Summary()
	}
	return out
}
