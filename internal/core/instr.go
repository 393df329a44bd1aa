package core

import (
	"context"

	"xmlconflict/internal/telemetry"
)

// instr bundles the per-call counter and progress channels drawn from
// SearchOptions (decisions go to spans, see spans.go). The nil *instr is
// fully disabled and every method is nil-safe, so instrumented hot paths
// pay a single pointer check per site when telemetry is off.
type instr struct {
	m  *telemetry.Metrics
	pr *telemetry.Progress
}

// observer extracts the instrumentation bundle from opts, or nil when
// every channel is disabled.
func observer(opts SearchOptions) *instr {
	if opts.Stats == nil && opts.Progress == nil {
		return nil
	}
	return &instr{m: opts.Stats, pr: opts.Progress}
}

func (in *instr) metrics() *telemetry.Metrics {
	if in == nil {
		return nil
	}
	return in.m
}

func (in *instr) count(name string, n int64) {
	if in != nil {
		in.m.Add(name, n)
	}
}

func (in *instr) gaugeMax(name string, v int64) {
	if in != nil {
		in.m.Gauge(name).SetMax(v)
	}
}

func (in *instr) timer(name string) func() {
	if in == nil || in.m == nil {
		return func() {}
	}
	return in.m.Timer(name).Start()
}

func (in *instr) progressStart(phase string, total int64) {
	if in != nil {
		in.pr.Start(phase, total)
	}
}

func (in *instr) progressStep(n int64) {
	if in != nil {
		in.pr.Step(n)
	}
}

func (in *instr) progressFinish() {
	if in != nil {
		in.pr.Finish()
	}
}

// WithStats returns a copy of o accumulating counters, gauges, and
// timers into st.
func (o SearchOptions) WithStats(st *telemetry.Metrics) SearchOptions {
	o.Stats = st
	return o
}

// WithProgress returns a copy of o delivering throttled search-progress
// reports to p.
func (o SearchOptions) WithProgress(p *telemetry.Progress) SearchOptions {
	o.Progress = p
	return o
}

// WithContext returns a copy of o whose searches are canceled when ctx
// is: the candidate enumerations poll ctx between candidates and return
// its error instead of a verdict. A span in ctx records the decisions.
func (o SearchOptions) WithContext(ctx context.Context) SearchOptions {
	o.Ctx = ctx
	return o
}
