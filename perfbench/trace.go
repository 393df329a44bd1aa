package main

// The traced run. Every operation runs under its own span.Trace; the
// driver opens one span around each public call it makes and passes it
// down through the context, so the spans the program already emits
// (detect.cached, detect, search, store.update|read|create|drop,
// store.admit, store.apply, store.wal.append) land beneath it. Nothing
// is added inside the program. Traces stay in memory until
// the timed phase ends; then they are reduced to per-layer samples and
// written out.

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"xmlconflict/internal/telemetry/span"
)

// spanStat is one span of a finished trace: its duration, its self time
// (the duration minus the part of it that child spans cover), both in
// the span clock's whole microseconds, and its attributes.
type spanStat struct {
	name   string
	durUs  int64
	selfUs int64
	attrs  map[string]any
}

// flatten lists every span of a trace view, parents before children.
func flatten(v span.TraceView) []spanStat {
	var out []spanStat
	var walk func(s span.SpanView)
	walk = func(s span.SpanView) {
		out = append(out, spanStat{name: s.Name, durUs: s.DurationUs, selfUs: selfUs(s), attrs: s.Attrs})
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(v.Root)
	return out
}

// selfUs is the span's duration minus the union of its children's
// intervals, each clipped to the span's own.
func selfUs(s span.SpanView) int64 {
	lo, hi := s.StartUs, s.StartUs+s.DurationUs
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range s.Children {
		a, b := max(c.StartUs, lo), min(c.StartUs+c.DurationUs, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), lo
	for _, x := range ivs {
		a := max(x.a, end)
		if x.b > a {
			covered += x.b - a
			end = x.b
		}
	}
	return max(0, s.DurationUs-covered)
}

// attrInt reads an integer attribute of a span ("bytes", ...).
func attrInt(attrs map[string]any, key string) (int64, bool) {
	switch v := attrs[key].(type) {
	case int:
		return int64(v), true
	case int64:
		return v, true
	case uint64:
		return int64(v), true
	}
	return 0, false
}

// writeTraces writes the run's traces as gzipped JSON lines, one trace
// view per line, under dir.
func writeTraces(dir, name string, traces []*span.Trace) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, tr := range traces {
		if err := enc.Encode(tr.View()); err != nil {
			f.Close()
			return "", fmt.Errorf("write traces: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
