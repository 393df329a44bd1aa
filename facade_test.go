package xmlconflict_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"xmlconflict"
	"xmlconflict/internal/telemetry/span"
)

// TestFacadeEndToEnd exercises every entry point of the public API once,
// as a downstream user would.
func TestFacadeEndToEnd(t *testing.T) {
	// Parsing.
	p, err := xmlconflict.ParseXPath("//book[.//low]")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xmlconflict.ParseXPath("]["); err == nil {
		t.Fatal("bad xpath accepted")
	}
	doc, err := xmlconflict.ParseXMLString("<inventory><book><quantity><low/></quantity></book></inventory>")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xmlconflict.ParseXML(strings.NewReader("<a><b/></a>")); err != nil {
		t.Fatal(err)
	}
	if _, err := xmlconflict.ParseXMLString("<unclosed>"); err == nil {
		t.Fatal("bad xml accepted")
	}

	// Evaluation.
	res := xmlconflict.Eval(p, doc)
	if len(res) != 1 || res[0].Label() != "book" {
		t.Fatalf("Eval = %v", res)
	}
	if !xmlconflict.Embeds(p, doc) {
		t.Fatal("Embeds false")
	}

	// Tree construction and isomorphism.
	tr := xmlconflict.NewTree("a")
	tr.AddChild(tr.Root(), "b")
	if !xmlconflict.Isomorphic(tr, xmlconflict.MustParseXML("<a><b/></a>")) {
		t.Fatal("Isomorphic false")
	}

	// Conflict detection, all entry points.
	read := xmlconflict.Read{P: xmlconflict.MustParseXPath("//C")}
	ins := xmlconflict.Insert{P: xmlconflict.MustParseXPath("/*/B"), X: xmlconflict.MustParseXML("<C/>")}
	del := xmlconflict.Delete{P: xmlconflict.MustParseXPath("/a/b")}

	v, err := xmlconflict.Detect(read, ins, xmlconflict.NodeSemantics, xmlconflict.SearchOptions{})
	if err != nil || !v.Conflict {
		t.Fatalf("Detect: %+v %v", v, err)
	}
	ok, err := xmlconflict.IsConflictWitness(xmlconflict.NodeSemantics, read, ins, v.Witness)
	if err != nil || !ok {
		t.Fatalf("IsConflictWitness: %v %v", ok, err)
	}
	small, err := xmlconflict.ShrinkWitness(v.Witness, read, ins)
	if err != nil || small.Size() > v.Witness.Size() {
		t.Fatalf("ShrinkWitness: %v", err)
	}
	if v2, err := xmlconflict.ReadInsertConflict(read.P, ins, xmlconflict.TreeSemantics); err != nil || !v2.Conflict {
		t.Fatalf("ReadInsertConflict: %v", err)
	}
	if v2, err := xmlconflict.ReadInsertConflictFast(read.P, ins, xmlconflict.NodeSemantics); err != nil || !v2.Conflict {
		t.Fatalf("ReadInsertConflictFast: %v", err)
	}
	rd := xmlconflict.MustParseXPath("/a/b/c")
	if v2, err := xmlconflict.ReadDeleteConflict(rd, del, xmlconflict.ValueSemantics); err != nil || !v2.Conflict {
		t.Fatalf("ReadDeleteConflict: %v", err)
	}
	if v2, err := xmlconflict.ReadDeleteConflictFast(rd, del, xmlconflict.NodeSemantics); err != nil || !v2.Conflict {
		t.Fatalf("ReadDeleteConflictFast: %v", err)
	}

	// Update/update conflicts.
	if v2, err := xmlconflict.UpdateUpdateConflict(ins, ins, xmlconflict.SearchOptions{}); err != nil || v2.Conflict {
		t.Fatalf("identical updates: %+v %v", v2, err)
	}
	if ok, _, err := xmlconflict.UpdatesIndependent(
		xmlconflict.Insert{P: xmlconflict.MustParseXPath("/r/a"), X: xmlconflict.MustParseXML("<x/>")},
		xmlconflict.Insert{P: xmlconflict.MustParseXPath("/r/b"), X: xmlconflict.MustParseXML("<y/>")},
		xmlconflict.SearchOptions{}); err != nil || !ok {
		t.Fatalf("UpdatesIndependent: %v %v", ok, err)
	}

	// Containment, equivalence, minimization, reductions.
	pa, pb := xmlconflict.MustParseXPath("/a/b"), xmlconflict.MustParseXPath("//b")
	if ok, _ := xmlconflict.Contained(pa, pb); !ok {
		t.Fatal("Contained false")
	}
	if xmlconflict.EquivalentPatterns(pa, pb) {
		t.Fatal("EquivalentPatterns true")
	}
	if m := xmlconflict.MinimizePattern(xmlconflict.MustParseXPath("/a[b][b]")); m.Size() != 2 {
		t.Fatalf("MinimizePattern: %s", m)
	}
	notC, counter := xmlconflict.Contained(pb, pa)
	if notC {
		t.Fatal("//b ⊆ /a/b?")
	}
	rri, ii := xmlconflict.ReduceNonContainmentToInsert(pb, pa)
	w := xmlconflict.ReductionWitnessInsert(pb, pa, counter)
	if ok, err := xmlconflict.IsConflictWitness(xmlconflict.NodeSemantics, rri, ii, w); err != nil || !ok {
		t.Fatalf("reduction witness insert: %v %v", ok, err)
	}
	rrd, dd := xmlconflict.ReduceNonContainmentToDelete(pb, pa)
	wd := xmlconflict.ReductionWitnessDelete(pb, pa, counter)
	if ok, err := xmlconflict.IsConflictWitness(xmlconflict.NodeSemantics, rrd, dd, wd); err != nil || !ok {
		t.Fatalf("reduction witness delete: %v %v", ok, err)
	}

	// Schemas.
	s, err := xmlconflict.ParseSchema("root a\na: b?\nb:")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(xmlconflict.MustParseXML("<a><b/></a>")); err != nil {
		t.Fatal(err)
	}
	s2 := xmlconflict.MustParseSchema("root inventory\ninventory: book*\nbook: quantity\nquantity: low?\nlow:")
	vs, err := xmlconflict.DetectUnderSchema(
		xmlconflict.Read{P: xmlconflict.MustParseXPath("//low")},
		xmlconflict.Insert{P: xmlconflict.MustParseXPath("/inventory/low"), X: xmlconflict.MustParseXML("<low/>")},
		xmlconflict.NodeSemantics, s2, xmlconflict.SearchOptions{})
	if err != nil || vs.Conflict {
		t.Fatalf("DetectUnderSchema: %+v %v", vs, err)
	}

	// Programs.
	prog, err := xmlconflict.ParseProgram("x = doc <x><B/><A/></x>\ny = read $x//A\ninsert $x/B, <C/>\nz = read $x//A")
	if err != nil {
		t.Fatal(err)
	}
	a, err := xmlconflict.AnalyzeProgram(prog, xmlconflict.AnalyzeOptions{Sem: xmlconflict.NodeSemantics})
	if err != nil {
		t.Fatal(err)
	}
	if a.Dep[1][2] {
		t.Fatal("//A should not depend on inserting <C/>")
	}
	opt, err := xmlconflict.OptimizeProgram(prog, xmlconflict.AnalyzeOptions{Sem: xmlconflict.NodeSemantics})
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Applied) == 0 {
		t.Fatal("optimizer found nothing (expected CSE of the repeated //A)")
	}
}

func TestFacadeConstantsAndAliases(t *testing.T) {
	// The axis/semantics constants are usable and distinct.
	if xmlconflict.Child == xmlconflict.Descendant {
		t.Fatal("axes equal")
	}
	if xmlconflict.NodeSemantics == xmlconflict.TreeSemantics ||
		xmlconflict.TreeSemantics == xmlconflict.ValueSemantics {
		t.Fatal("semantics equal")
	}
	if xmlconflict.Wildcard != "*" {
		t.Fatal("wildcard constant wrong")
	}
	// Pattern construction via the facade aliases.
	p := xmlconflict.MustParseXPath("/a")
	n := p.AddChild(p.Root(), xmlconflict.Descendant, xmlconflict.Wildcard)
	p.SetOutput(n)
	if !p.IsLinear() || p.String() != "/a//*" {
		t.Fatalf("pattern building through the facade: %s", p)
	}
}

// findSpans collects every span of the tree named name, depth-first.
func findSpans(v span.SpanView, name string) []span.SpanView {
	var out []span.SpanView
	if v.Name == name {
		out = append(out, v)
	}
	for _, c := range v.Children {
		out = append(out, findSpans(c, name)...)
	}
	return out
}

// TestObservabilityFacade exercises the telemetry surface end to end:
// stats, span traces, progress reporting, the parallel searcher's
// deterministic witness, and observed shrinking.
func TestObservabilityFacade(t *testing.T) {
	read := xmlconflict.Read{P: xmlconflict.MustParseXPath("a[q]/b")}
	ins := xmlconflict.Insert{
		P: xmlconflict.MustParseXPath("a"),
		X: xmlconflict.MustParseXML("<b/>"),
	}

	var treeBuf, progBuf bytes.Buffer
	st := xmlconflict.NewStats()
	var updates []xmlconflict.ProgressUpdate
	ctx, tr := xmlconflict.StartTrace(context.Background(), "facade")
	opts := xmlconflict.SearchOptions{MaxNodes: 4}.
		WithStats(st).
		WithContext(ctx).
		WithProgress(xmlconflict.NewProgress(func(u xmlconflict.ProgressUpdate) { updates = append(updates, u) }, 0))

	v, err := xmlconflict.Detect(read, ins, xmlconflict.NodeSemantics, opts)
	if err != nil || !v.Conflict || v.Candidates == 0 {
		t.Fatalf("detect: %+v %v", v, err)
	}
	tr.Finish()
	view := tr.View()
	if _, err := json.Marshal(view); err != nil {
		t.Fatalf("trace view does not serialize: %v", err)
	}
	det := findSpans(view.Root, "detect")
	if len(det) != 1 || det[0].Attrs["method"] != "search" || det[0].Attrs["read_linear"] != false {
		t.Fatalf("detect span: %+v", det)
	}
	srch := findSpans(det[0], "search")
	if len(srch) != 1 || srch[0].Attrs["candidates"] != v.Candidates || srch[0].Attrs["bound"] == nil {
		t.Fatalf("search span: %+v (verdict %d candidates)", srch, v.Candidates)
	}
	if snap := st.Snapshot(); snap.Counter("search.candidates") != int64(v.Candidates) {
		t.Fatalf("stats/verdict disagree: %d vs %d", snap.Counter("search.candidates"), v.Candidates)
	}
	if len(updates) == 0 || !updates[len(updates)-1].Final {
		t.Fatalf("progress updates: %+v", updates)
	}

	// The tree renderer and progress writer render one line per span or
	// event and per report.
	view.WriteTree(&treeBuf)
	textOpts := xmlconflict.SearchOptions{MaxNodes: 4}.
		WithProgress(xmlconflict.NewProgressWriter(&progBuf, 0))
	if _, err := xmlconflict.Detect(read, ins, xmlconflict.NodeSemantics, textOpts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(treeBuf.String(), "search +") || !strings.Contains(progBuf.String(), "search:") {
		t.Fatalf("text outputs missing:\n%s\n%s", treeBuf.String(), progBuf.String())
	}

	// DetectParallel returns the canonical (sequential) witness; its
	// search span says where that witness sits in the enumeration.
	seq, err := xmlconflict.Detect(read, ins, xmlconflict.NodeSemantics, xmlconflict.SearchOptions{MaxNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	pctx, ptr := xmlconflict.StartTrace(context.Background(), "parallel")
	par, err := xmlconflict.DetectParallel(read, ins, xmlconflict.NodeSemantics, xmlconflict.SearchOptions{MaxNodes: 4}.WithContext(pctx), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !par.Conflict || !xmlconflict.Isomorphic(seq.Witness, par.Witness) {
		t.Fatalf("parallel witness not canonical: seq %s par %s", seq.Witness, par.Witness)
	}
	ptr.Finish()
	ps := findSpans(ptr.View().Root, "search")
	if len(ps) != 1 || ps[0].Attrs["witness_seq"] != int64(seq.Candidates) || ps[0].Attrs["raced_past"] == nil {
		t.Fatalf("parallel search span: %+v (sequential witness at %d)", ps, seq.Candidates)
	}

	// Observed shrinking reports through the same channels.
	lread := xmlconflict.Read{P: xmlconflict.MustParseXPath("//C")}
	lins := xmlconflict.Insert{P: xmlconflict.MustParseXPath("/*/B"), X: xmlconflict.MustParseXML("<C/>")}
	lv, err := xmlconflict.Detect(lread, lins, xmlconflict.NodeSemantics, xmlconflict.SearchOptions{})
	if err != nil || !lv.Conflict {
		t.Fatalf("linear detect: %+v %v", lv, err)
	}
	sst := xmlconflict.NewStats()
	sctx, str := xmlconflict.StartTrace(context.Background(), "observed-shrink")
	shrunk, err := xmlconflict.ShrinkWitnessObserved(lv.Witness, lread, lins,
		xmlconflict.SearchOptions{}.WithStats(sst).WithContext(sctx))
	if err != nil {
		t.Fatal(err)
	}
	if sst.Snapshot().Counter("shrink.calls") != 1 {
		t.Fatalf("shrink not counted: %s", sst.Snapshot())
	}
	str.Finish()
	sh := findSpans(str.View().Root, "shrink")
	if len(sh) != 1 || sh[0].Attrs["nodes_before"] != lv.Witness.Size() || sh[0].Attrs["nodes_after"] != shrunk.Size() {
		t.Fatalf("shrink span: %+v", sh)
	}
}
