package core

import (
	"context"
	"testing"

	"xmlconflict/internal/ops"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/telemetry/span"
	"xmlconflict/internal/xpath"
)

// traced returns opts carrying the root span of a fresh trace.
func traced(opts SearchOptions) (SearchOptions, *span.Trace) {
	tr := span.New("test")
	return opts.WithContext(span.Context(context.Background(), tr.Root())), tr
}

// onlySpan returns the single span named name in the finished trace.
func onlySpan(t *testing.T, tr *span.Trace, name string) span.SpanView {
	t.Helper()
	tr.Finish()
	got := findSpans(tr.View().Root, name)
	if len(got) != 1 {
		t.Fatalf("%s spans = %d, want 1", name, len(got))
	}
	return got[0]
}

func TestSearchConflictTelemetry(t *testing.T) {
	r := ops.Read{P: xpath.MustParse("a[q]/b")}
	ins := mustInsert("a", "<b/>")
	st := telemetry.New()
	var updates []telemetry.Update
	pr := telemetry.NewProgress(func(u telemetry.Update) { updates = append(updates, u) }, 0)
	opts, tr := traced(SearchOptions{MaxNodes: 4}.WithStats(st).WithProgress(pr))
	v, err := SearchConflict(r, ins, ops.NodeSemantics, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Conflict {
		t.Fatalf("want conflict: %+v", v)
	}
	snap := st.Snapshot()
	if got := snap.Counter("search.candidates"); got != int64(v.Candidates) || got == 0 {
		t.Fatalf("search.candidates = %d, verdict says %d", got, v.Candidates)
	}
	if snap.Counter("witness.checks") == 0 {
		t.Fatalf("no witness checks counted: %s", snap)
	}
	if snap.Counter("match.cache_misses") != 2 {
		t.Fatalf("want 2 compiled-pattern cache misses (read + update), got %d", snap.Counter("match.cache_misses"))
	}
	if snap.Counter("minimize.calls") != 2 {
		t.Fatalf("want 2 minimize calls (read + update), got %d", snap.Counter("minimize.calls"))
	}

	// The search span carries the bounds the sweep ran under and its
	// spend.
	s := onlySpan(t, tr, "search")
	for _, key := range []string{"bound", "max_nodes", "max_candidates", "alphabet"} {
		if _, ok := s.Attrs[key]; !ok {
			t.Fatalf("search span missing %q: %+v", key, s.Attrs)
		}
	}
	if s.Attrs["conflict"] != true || s.Attrs["candidates"] != v.Candidates || s.Attrs["witness_nodes"] != v.Witness.Size() {
		t.Fatalf("search span outcome %+v, verdict %+v", s.Attrs, v)
	}

	if len(updates) == 0 {
		t.Fatalf("no progress updates delivered")
	}
	last := updates[len(updates)-1]
	if !last.Final || last.Done != int64(v.Candidates) {
		t.Fatalf("final progress update wrong: %+v (want done=%d)", last, v.Candidates)
	}
}

func TestDetectTelemetryLinear(t *testing.T) {
	r := ops.Read{P: xpath.MustParse("//C")}
	ins := mustInsert("/*/B", "<C/>")
	st := telemetry.New()
	opts, tr := traced(SearchOptions{}.WithStats(st))
	v, err := Detect(r, ins, ops.NodeSemantics, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Conflict || v.Method != "linear" {
		t.Fatalf("quickstart pair: %+v", v)
	}
	if v.Candidates != 0 {
		t.Fatalf("linear verdicts examine no candidates, got %d", v.Candidates)
	}
	d := onlySpan(t, tr, "detect")
	want := map[string]any{
		"method":      "linear",
		"kind":        "insert",
		"semantics":   "node",
		"read_linear": true,
		"read_size":   r.P.Size(),
		"update_size": ins.P.Size(),
		"conflict":    true,
		"complete":    true,
		"detail":      v.Detail,
	}
	for k, w := range want {
		if d.Attrs[k] != w {
			t.Fatalf("detect span %s = %v, want %v (%+v)", k, d.Attrs[k], w, d.Attrs)
		}
	}
	if _, ok := d.Attrs["candidates"]; ok {
		t.Fatalf("linear detect span reports candidates: %+v", d.Attrs)
	}
	var cut *span.EventView
	for i, e := range d.Events {
		if e.Name == "linear.edge" && e.Attrs["cut"] == true {
			cut = &d.Events[i]
		}
	}
	if cut == nil || cut.Attrs["edge"] != v.Edge || cut.Attrs["word_len"] != len(v.Word) || cut.Attrs["axis"] == nil {
		t.Fatalf("no linear.edge event recording the cut edge %d: %+v", v.Edge, d.Events)
	}
	snap := st.Snapshot()
	if snap.Counter("detect.calls") != 1 || snap.Counter("linear.edges_checked") == 0 {
		t.Fatalf("linear counters missing: %s", snap)
	}
	if snap.Counter("automata.products") == 0 || snap.Counter("automata.product_states") == 0 {
		t.Fatalf("automata product telemetry missing: %s", snap)
	}
	if snap.Counter("linear.cut_edges") == 0 {
		t.Fatalf("conflicting pair must record a cut edge: %s", snap)
	}
}

func TestDetectLinearEdgeWhy(t *testing.T) {
	// A non-conflicting linear delete: every read edge is decided "no
	// cut", each with its reason.
	r := ops.Read{P: xpath.MustParse("/a/b/c")}
	d := ops.Delete{P: xpath.MustParse("/x/y")}
	opts, tr := traced(SearchOptions{})
	v, err := Detect(r, d, ops.NodeSemantics, opts)
	if err != nil || v.Conflict {
		t.Fatalf("detect: %+v %v", v, err)
	}
	det := onlySpan(t, tr, "detect")
	if len(det.Events) != 2 {
		t.Fatalf("linear.edge events = %d, want one per read edge (2): %+v", len(det.Events), det.Events)
	}
	for i, e := range det.Events {
		if e.Name != "linear.edge" || e.Attrs["edge"] != i+1 || e.Attrs["cut"] != false || e.Attrs["why"] == nil {
			t.Fatalf("edge %d event = %+v", i+1, e)
		}
	}
}

func TestShrinkWitnessTelemetry(t *testing.T) {
	r := ops.Read{P: xpath.MustParse("//C")}
	ins := mustInsert("/*/B", "<C/>")
	v, err := Detect(r, ins, ops.NodeSemantics, SearchOptions{})
	if err != nil || !v.Conflict {
		t.Fatalf("detect: %v %+v", err, v)
	}
	// Bloat the witness so shrinking has something to do.
	w := v.Witness.Clone()
	n := w.Root()
	for i := 0; i < 10; i++ {
		n = w.AddChild(n, "pad")
	}
	st := telemetry.New()
	opts, tr := traced(SearchOptions{}.WithStats(st))
	shrunk, err := ShrinkWitnessObserved(w, r, ins, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if snap.Counter("shrink.calls") != 1 {
		t.Fatalf("shrink.calls: %s", snap)
	}
	if snap.Counter("shrink.nodes_before") != int64(w.Size()) ||
		snap.Counter("shrink.nodes_after") != int64(shrunk.Size()) {
		t.Fatalf("shrink size counters wrong: %s (before=%d after=%d)", snap, w.Size(), shrunk.Size())
	}
	s := onlySpan(t, tr, "shrink")
	if s.Attrs["nodes_before"] != w.Size() || s.Attrs["nodes_after"] != shrunk.Size() ||
		s.Attrs["marked"] != int(snap.Counter("shrink.marked_nodes")) || s.Attrs["reparent_steps"] == nil {
		t.Fatalf("shrink span %+v (before=%d after=%d)", s.Attrs, w.Size(), shrunk.Size())
	}
}
