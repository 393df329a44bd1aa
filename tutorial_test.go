package xmlconflict_test

import (
	"context"
	"testing"

	"xmlconflict"
)

// TestTutorialClaims executes every factual claim made in
// docs/TUTORIAL.md, in order, so the tutorial cannot rot.
func TestTutorialClaims(t *testing.T) {
	// §1: the Section 1 example and its flip.
	read := xmlconflict.Read{P: xmlconflict.MustParseXPath("//C")}
	ins := xmlconflict.Insert{
		P: xmlconflict.MustParseXPath("/*/B"),
		X: xmlconflict.MustParseXML("<C/>"),
	}
	v, err := xmlconflict.Detect(read, ins, xmlconflict.NodeSemantics, xmlconflict.SearchOptions{})
	if err != nil || !v.Conflict || v.Witness == nil {
		t.Fatalf("§1 conflict: %+v %v", v, err)
	}
	v, err = xmlconflict.Detect(xmlconflict.Read{P: xmlconflict.MustParseXPath("//D")}, ins,
		xmlconflict.NodeSemantics, xmlconflict.SearchOptions{})
	if err != nil || v.Conflict {
		t.Fatalf("§1 //D: %+v %v", v, err)
	}

	// §2: attributes/text discarded.
	tr, err := xmlconflict.ParseXMLString(`<inv n="5">text<book/><book/></inv>`)
	if err != nil || tr.Size() != 3 {
		t.Fatalf("§2 size: %d %v", tr.Size(), err)
	}

	// §3: Figure 2 evaluates to the b node; linearity.
	p := xmlconflict.MustParseXPath("a[.//c]/b[d][*//f]")
	fig2 := xmlconflict.MustParseXML("<a><b><d/><e><f/></e></b><c/></a>")
	res := xmlconflict.Eval(p, fig2)
	if len(res) != 1 || res[0].Label() != "b" {
		t.Fatalf("§3 Figure 2: %v", res)
	}
	if p.IsLinear() || !xmlconflict.MustParseXPath("/a//b/*").IsLinear() {
		t.Fatalf("§3 linearity")
	}

	// §5: the read-delete example with Edge, Word, Witness.
	v, err = xmlconflict.ReadDeleteConflict(
		xmlconflict.MustParseXPath("/a/b//c"),
		xmlconflict.Delete{P: xmlconflict.MustParseXPath("/a/b")},
		xmlconflict.NodeSemantics)
	if err != nil {
		t.Fatal(err)
	}
	if v.Edge != 1 || len(v.Word) != 2 || v.Word[0] != "a" || v.Word[1] != "b" {
		t.Fatalf("§5 edge/word: %+v", v)
	}
	if v.Witness.XML() != "<a><b><c/></b></a>" {
		t.Fatalf("§5 witness: %s", v.Witness.XML())
	}

	// §6: the reduction walkthrough.
	pp := xmlconflict.MustParseXPath("a[.//b1][.//b2]")
	qq := xmlconflict.MustParseXPath("a[.//b1/b2]")
	contained, counter := xmlconflict.Contained(pp, qq)
	if contained || counter == nil {
		t.Fatalf("§6 containment")
	}
	r, rIns := xmlconflict.ReduceNonContainmentToInsert(pp, qq)
	w := xmlconflict.ReductionWitnessInsert(pp, qq, counter)
	ok, err := xmlconflict.IsConflictWitness(xmlconflict.NodeSemantics, r, rIns, w)
	if err != nil || !ok {
		t.Fatalf("§6 witness: %v %v", ok, err)
	}

	// §7: observing a detection. The quickstart pair under a span trace
	// records the linear method choice, per-edge cut decisions, and the
	// verdict on the detect span; stats count the automata products
	// behind them.
	st := xmlconflict.NewStats()
	ctx, trace := xmlconflict.StartTrace(context.Background(), "tutorial")
	v, err = xmlconflict.Detect(read, ins, xmlconflict.NodeSemantics,
		xmlconflict.SearchOptions{}.WithStats(st).WithContext(ctx))
	if err != nil || !v.Conflict {
		t.Fatalf("§7 detect: %+v %v", v, err)
	}
	trace.Finish()
	det := findSpans(trace.View().Root, "detect")
	if len(det) != 1 || det[0].Attrs["method"] != "linear" || det[0].Attrs["conflict"] != true {
		t.Fatalf("§7 detect span: %+v", det)
	}
	cut := false
	for _, e := range det[0].Events {
		cut = cut || e.Name == "linear.edge" && e.Attrs["cut"] == true
	}
	if !cut {
		t.Fatalf("§7 no linear.edge cut event: %+v", det[0].Events)
	}
	snap := st.Snapshot()
	if snap.Counter("automata.products") == 0 || snap.Counter("automata.product_states") == 0 {
		t.Fatalf("§7 automata counters: %s", snap)
	}
	// A branching read goes through the search and reports candidates.
	ctx, trace = xmlconflict.StartTrace(context.Background(), "tutorial")
	v, err = xmlconflict.Detect(
		xmlconflict.Read{P: xmlconflict.MustParseXPath("a[q]/b")},
		xmlconflict.Insert{P: xmlconflict.MustParseXPath("a"), X: xmlconflict.MustParseXML("<b/>")},
		xmlconflict.NodeSemantics,
		xmlconflict.SearchOptions{MaxNodes: 4}.WithContext(ctx))
	if err != nil || !v.Conflict || v.Candidates == 0 {
		t.Fatalf("§7 search candidates: %+v %v", v, err)
	}
	trace.Finish()
	if srch := findSpans(trace.View().Root, "search"); len(srch) != 1 || srch[0].Attrs["bound"] == nil || srch[0].Attrs["candidates"] != v.Candidates {
		t.Fatalf("§7 search span: %+v", srch)
	}

	// §8: the xdep walkthrough program parses and optimizes with a CSE.
	prog, err := xmlconflict.ParseProgram(`
x = doc <x><B/><A/></x>
y = read $x/*/A
insert $x/B, <C/>
u = read $x/*/A
`)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := xmlconflict.OptimizeProgram(prog, xmlconflict.AnalyzeOptions{Sem: xmlconflict.NodeSemantics})
	if err != nil {
		t.Fatal(err)
	}
	cse := false
	for _, a := range opt.Applied {
		if a.Kind == "cse" {
			cse = true
		}
	}
	if !cse {
		t.Fatalf("§8 CSE missing: %+v", opt.Applied)
	}
	a, err := xmlconflict.AnalyzeProgram(prog, xmlconflict.AnalyzeOptions{Sem: xmlconflict.NodeSemantics})
	if err != nil {
		t.Fatal(err)
	}
	if a.ParallelSchedule().Depth() != 2 {
		t.Fatalf("§8 schedule depth: %d", a.ParallelSchedule().Depth())
	}

	// §9: minimization example.
	if m := xmlconflict.MinimizePattern(xmlconflict.MustParseXPath("/a[b/c][b][.//b]/d")); m.String() != "/a[b[c]]/d" {
		t.Fatalf("§9 minimize: %s", m)
	}
}
