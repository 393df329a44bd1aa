package core

import (
	"context"

	"xmlconflict/internal/telemetry"
)

// instr is the per-call counter channel drawn from SearchOptions
// (decisions go to spans, see spans.go; progress to
// SearchOptions.Progress). The nil *instr is fully disabled and every
// method is nil-safe, so instrumented hot paths pay a single pointer
// check per site when telemetry is off.
type instr struct {
	m *telemetry.Metrics
}

// observer extracts the counter channel from opts, or nil when it is
// disabled.
func observer(opts SearchOptions) *instr {
	if opts.Stats == nil {
		return nil
	}
	return &instr{m: opts.Stats}
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

// WithStats returns a copy of o accumulating counters and gauges into
// st.
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
