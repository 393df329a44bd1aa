package schema

import (
	"context"
	"testing"

	"xmlconflict/internal/core"
	"xmlconflict/internal/match"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/telemetry/span"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// embedsInto adapts match.Embeds for the tests in this package.
func embedsInto(p *pattern.Pattern, t *xmltree.Tree) bool { return match.Embeds(p, t) }

func ins(expr, x string) ops.Insert {
	return ops.Insert{P: xpath.MustParse(expr), X: xmltree.MustParse(x)}
}

func del(expr string) ops.Delete {
	return ops.Delete{P: xpath.MustParse(expr)}
}

func TestSchemaPrunesUnfirableUpdate(t *testing.T) {
	s := MustParse(inventorySchema)
	// Without a schema, this pair conflicts (the detector proves it).
	read := ops.Read{P: xpath.MustParse("//low")}
	u := ins("/inventory/quantity", "<low/>") // quantity directly under inventory: schema-impossible
	v, err := core.Detect(read, u, ops.NodeSemantics, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Conflict {
		t.Fatalf("schema-free detection should conflict: %+v", v)
	}
	// Under the schema, the insert can never fire.
	vs, err := DetectUnderSchema(read, u, ops.NodeSemantics, s, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vs.Conflict || !vs.Complete || vs.Method != "schema-static" {
		t.Fatalf("schema should prune the conflict: %+v", vs)
	}
}

func TestSchemaPrunesUnsatisfiableReadVsDelete(t *testing.T) {
	s := MustParse(inventorySchema)
	read := ops.Read{P: xpath.MustParse("//book/low")} // low only lives under quantity
	u := del("//book")
	v, err := core.Detect(read, u, ops.NodeSemantics, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Conflict {
		t.Fatalf("schema-free detection should conflict")
	}
	vs, err := DetectUnderSchema(read, u, ops.NodeSemantics, s, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vs.Conflict || !vs.Complete {
		t.Fatalf("schema should prune: %+v", vs)
	}
}

func TestSchemaSearchFindsValidWitness(t *testing.T) {
	s := MustParse(inventorySchema)
	// Restocking genuinely conflicts with //book/* even on valid docs.
	read := ops.Read{P: xpath.MustParse("//book/quantity")}
	u := del("//book[.//low]")
	vs, err := DetectUnderSchema(read, u, ops.NodeSemantics, s, core.SearchOptions{MaxNodes: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !vs.Conflict {
		t.Fatalf("expected a schema-valid conflict witness: %+v", vs)
	}
	if err := s.Validate(vs.Witness); err != nil {
		t.Fatalf("witness is not schema-valid: %v (%s)", err, vs.Witness.XML())
	}
	ok, err := ops.NodeConflictWitness(read, u, vs.Witness)
	if err != nil || !ok {
		t.Fatalf("witness does not witness: %v %v", ok, err)
	}
}

func TestSchemaSearchNegativeIncomplete(t *testing.T) {
	s := MustParse(inventorySchema)
	// Inserting a publisher cannot change //low results, but the schema
	// engine cannot prove it (no known bound): incomplete negative.
	read := ops.Read{P: xpath.MustParse("//low")}
	u := ins("//book", "<publisher><name/></publisher>")
	vs, err := DetectUnderSchema(read, u, ops.NodeSemantics, s, core.SearchOptions{MaxNodes: 7, MaxCandidates: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if vs.Conflict {
		t.Fatalf("no conflict expected: %+v", vs)
	}
	if vs.Complete {
		t.Fatalf("schema-search negatives must be incomplete: %+v", vs)
	}
}

func TestSchemaSearchCandidateCap(t *testing.T) {
	// The cap is tested before a step is taken, as in core's search: a
	// cap of 5 examines, counts and charges exactly 5 candidates.
	s := MustParse(inventorySchema)
	read := ops.Read{P: xpath.MustParse("//low")}
	u := ins("//book", "<publisher><name/></publisher>")
	st := telemetry.New()
	steps := core.NewStepBudget(100)
	opts := core.SearchOptions{MaxNodes: 7, MaxCandidates: 5, Steps: steps}.WithStats(st)
	vs, err := DetectUnderSchema(read, u, ops.NodeSemantics, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if vs.Reason != core.ReasonCandidateCap || vs.Candidates != 5 {
		t.Fatalf("capped search: %+v, want 5 candidates and reason %q", vs, core.ReasonCandidateCap)
	}
	if got := st.Snapshot().Counter("schema.candidates"); got != 5 {
		t.Fatalf("schema.candidates = %d, want 5", got)
	}
	if spent := 100 - steps.Remaining(); spent != 5 {
		t.Fatalf("step budget charged %d steps, want 5", spent)
	}
}

// schemaSpans runs DetectUnderSchema under a fresh trace and returns its
// detect span.
func schemaSpans(t *testing.T, r ops.Read, u ops.Update, s *Schema, opts core.SearchOptions) (core.Verdict, span.SpanView) {
	t.Helper()
	tr := span.New("test")
	v, err := DetectUnderSchema(r, u, ops.NodeSemantics, s, opts.WithContext(span.Context(context.Background(), tr.Root())))
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	kids := tr.View().Root.Children
	if len(kids) != 1 || kids[0].Name != "detect" {
		t.Fatalf("want one detect span, got %+v", kids)
	}
	return v, kids[0]
}

func TestSchemaDetectSpans(t *testing.T) {
	s := MustParse(inventorySchema)

	// Static prune: the detect span records the method and the reason,
	// with no search beneath it.
	read := ops.Read{P: xpath.MustParse("//low")}
	u := ins("/inventory/quantity", "<low/>")
	v, d := schemaSpans(t, read, u, s, core.SearchOptions{})
	if d.Attrs["method"] != "schema-static" || d.Attrs["conflict"] != false || d.Attrs["detail"] != v.Detail ||
		d.Attrs["kind"] != "insert" || d.Attrs["read_size"] != read.P.Size() || d.Attrs["update_size"] != u.P.Size() {
		t.Fatalf("static-prune detect span: %+v", d.Attrs)
	}
	if len(d.Children) != 0 {
		t.Fatalf("static prune ran a search: %+v", d.Children)
	}

	// Search: a search child carries the bounds and the spend.
	read = ops.Read{P: xpath.MustParse("//book/quantity")}
	dl := del("//book[.//low]")
	v, d = schemaSpans(t, read, dl, s, core.SearchOptions{MaxNodes: 6, MaxCandidates: 50_000})
	if !v.Conflict || d.Attrs["method"] != "schema-search" || d.Attrs["conflict"] != true || d.Attrs["candidates"] != v.Candidates {
		t.Fatalf("search detect span: %+v (verdict %+v)", d.Attrs, v)
	}
	if len(d.Children) != 1 || d.Children[0].Name != "search" {
		t.Fatalf("want one search child, got %+v", d.Children)
	}
	sr := d.Children[0].Attrs
	if sr["max_nodes"] != 6 || sr["max_candidates"] != 50_000 || sr["schema"] != true || sr["candidates"] != v.Candidates {
		t.Fatalf("schema search span: %+v (verdict %+v)", sr, v)
	}
}

func TestSchemaRestrictionCanKillConflicts(t *testing.T) {
	// The restocking insert conflicts with //book/low in the unrestricted
	// model (a tree could have low directly under book) but not on valid
	// inventories, where low lives under quantity only and the insert
	// adds a restock element, never a low.
	s := MustParse(inventorySchema + "restock:\n")
	read := ops.Read{P: xpath.MustParse("//book/low")}
	u := ins("//book[.//low]", "<low/>")
	v, err := core.Detect(read, u, ops.NodeSemantics, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Conflict {
		t.Fatalf("unrestricted model should conflict")
	}
	vs, err := DetectUnderSchema(read, u, ops.NodeSemantics, s, core.SearchOptions{MaxNodes: 8, MaxCandidates: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	// The read //book/low is schema-unsatisfiable... but the INSERT can
	// make it true (low inserted under book), so this is NOT prunable and
	// in fact still a conflict: the witness must be a valid tree that the
	// insert mutates into an invalid one the read then sees.
	if !vs.Conflict {
		t.Fatalf("insert of <low/> under book still conflicts (updated doc may be invalid): %+v", vs)
	}
	if err := s.Validate(vs.Witness); err != nil {
		t.Fatalf("witness itself must be valid: %v", err)
	}
}

func TestValidityPreserving(t *testing.T) {
	s := MustParse(inventorySchema)
	// Deleting publishers preserves validity (publisher is optional).
	ok, w, err := s.ValidityPreserving(del("//publisher"), 8, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("deleting optional publishers flagged: %s", w.XML())
	}
	// Deleting quantities breaks validity (quantity is required).
	ok, w, err = s.ValidityPreserving(del("//quantity"), 8, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("deleting required quantity not flagged")
	}
	if s.Valid(w) != true {
		t.Fatalf("counterexample must be valid before the update")
	}
	// Inserting a second title breaks validity.
	ok, _, err = s.ValidityPreserving(ins("//book", "<title/>"), 8, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("inserting duplicate title not flagged")
	}
}

func TestCountValid(t *testing.T) {
	s := MustParse("root a\na: b?\nb:")
	// Valid trees: <a/>, <a><b/></a>. (b alone is not a valid root.)
	if got := s.CountValid(4, 1000); got != 2 {
		t.Fatalf("CountValid = %d, want 2", got)
	}
	// The restriction is drastic versus the unrestricted universe.
	free := core.CountTrees(2, 1) + core.CountTrees(2, 2) + core.CountTrees(2, 3) + core.CountTrees(2, 4)
	if free <= 2 {
		t.Fatalf("sanity: unrestricted count = %d", free)
	}
}
