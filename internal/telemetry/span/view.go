package span

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// TraceView is the immutable JSON snapshot of a trace — what the flight
// recorder stores, /v1/trace/{id} serves, and -trace-dir dumps.
type TraceView struct {
	TraceID      string    `json:"trace_id"`
	Name         string    `json:"name"`
	Start        time.Time `json:"start"`
	DurationUs   int64     `json:"duration_us"`
	Flags        []string  `json:"flags,omitempty"`
	DroppedSpans int64     `json:"dropped_spans,omitempty"`
	Root         SpanView  `json:"root"`
}

// SpanView is one span of a TraceView. Offsets are microseconds from
// the trace start, so a reader can line spans up without timestamp
// arithmetic.
type SpanView struct {
	SpanID     string         `json:"span_id"`
	Name       string         `json:"name"`
	StartUs    int64          `json:"start_us"`
	DurationUs int64          `json:"duration_us"`
	Open       bool           `json:"open,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Events     []EventView    `json:"events,omitempty"`
	Children   []SpanView     `json:"children,omitempty"`
}

// EventView is one point-in-time annotation of a SpanView.
type EventView struct {
	Name  string         `json:"name"`
	AtUs  int64          `json:"at_us"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// View snapshots the trace into an immutable TraceView. Spans still
// open report their live duration with Open set; View is safe to call
// concurrently with span mutation.
func (t *Trace) View() TraceView {
	if t == nil {
		return TraceView{}
	}
	return TraceView{
		TraceID:      t.id,
		Name:         t.name,
		Start:        t.start,
		DurationUs:   t.Duration().Microseconds(),
		Flags:        t.Flags(),
		DroppedSpans: t.dropped.Load(),
		Root:         t.root.view(t.start),
	}
}

func (s *Span) view(traceStart time.Time) SpanView {
	s.mu.Lock()
	v := SpanView{
		SpanID:  s.id,
		Name:    s.name,
		StartUs: s.start.Sub(traceStart).Microseconds(),
	}
	if s.ended {
		v.DurationUs = s.end.Sub(s.start).Microseconds()
	} else {
		v.DurationUs = time.Since(s.start).Microseconds()
		v.Open = true
	}
	if len(s.attrs) > 0 {
		v.Attrs = attrMap(s.attrs)
	}
	for _, e := range s.events {
		v.Events = append(v.Events, EventView{
			Name:  e.name,
			AtUs:  e.at.Sub(traceStart).Microseconds(),
			Attrs: attrMap(e.attrs),
		})
	}
	kids := make([]*Span, len(s.kids))
	copy(kids, s.kids)
	s.mu.Unlock()
	// Recurse outside the lock: children only ever append to themselves,
	// never back into the parent.
	for _, k := range kids {
		v.Children = append(v.Children, k.view(traceStart))
	}
	return v
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs { // later Set wins
		m[a.Key] = a.Value
	}
	return m
}

// Summary condenses the view to one list entry for /debug/requests.
func (v TraceView) Summary() TraceSummary {
	return TraceSummary{
		TraceID:    v.TraceID,
		Name:       v.Name,
		Start:      v.Start,
		DurationUs: v.DurationUs,
		Flags:      v.Flags,
	}
}

// TraceSummary is the list-form of a trace: identity, duration, flags.
type TraceSummary struct {
	TraceID    string    `json:"trace_id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationUs int64     `json:"duration_us"`
	Flags      []string  `json:"flags,omitempty"`
}

// WriteTree renders the span tree as indented human-readable lines —
// what the CLIs' -trace flag and `xserve` trace dumps print.
func (v TraceView) WriteTree(w io.Writer) {
	fmt.Fprintf(w, "trace %s %s %s%s\n", v.TraceID, v.Name, fmtUs(v.DurationUs), fmtFlags(v.Flags))
	if v.DroppedSpans > 0 {
		fmt.Fprintf(w, "  (%d spans dropped by cap)\n", v.DroppedSpans)
	}
	v.Root.writeTree(w, 1)
}

func (v SpanView) writeTree(w io.Writer, depth int) {
	indent := strings.Repeat("  ", depth)
	open := ""
	if v.Open {
		open = " (open)"
	}
	fmt.Fprintf(w, "%s%s +%s %s%s%s\n", indent, v.Name, fmtUs(v.StartUs), fmtUs(v.DurationUs), fmtAttrs(v.Attrs), open)
	for _, e := range v.Events {
		fmt.Fprintf(w, "%s  · %s +%s%s\n", indent, e.Name, fmtUs(e.AtUs), fmtAttrs(e.Attrs))
	}
	for _, c := range v.Children {
		c.writeTree(w, depth+1)
	}
}

func fmtUs(us int64) string {
	return fmt.Sprintf("%.3fms", float64(us)/1000)
}

func fmtAttrs(m map[string]any) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%v", k, m[k])
	}
	return b.String()
}

func fmtFlags(flags []string) string {
	if len(flags) == 0 {
		return ""
	}
	return " [" + strings.Join(flags, ",") + "]"
}
