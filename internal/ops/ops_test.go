package ops

import (
	"strings"
	"testing"

	"xmlconflict/internal/match"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

func TestReadEval(t *testing.T) {
	tr := xmltree.MustParse("<inv><book><q/></book><book/></inv>")
	r := Read{P: xpath.MustParse("//book")}
	if got := r.Eval(tr); len(got) != 2 {
		t.Fatalf("read returned %d nodes", len(got))
	}
}

func TestInsertApply(t *testing.T) {
	tr := xmltree.MustParse("<inv><book><q/></book><book/></inv>")
	ins := Insert{P: xpath.MustParse("//book[q]"), X: xmltree.MustParse("<restock/>")}
	before := tr.XML()
	after, points, err := ins.Apply(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("insertion points = %d, want 1", len(points))
	}
	if !strings.Contains(after.XML(), "<restock/>") {
		t.Fatalf("no restock inserted: %s", after.XML())
	}
	if after.Size() != 5 {
		t.Fatalf("size = %d, want 5", after.Size())
	}
	if tr.XML() != before || tr.Size() != 4 {
		t.Fatalf("Apply changed its input: %s", tr.XML())
	}
	// Modified: the insertion point and its ancestors are copies, not the
	// input's nodes.
	if after.NodeByID(points[0].ID()) == points[0] || after.Root() == tr.Root() {
		t.Fatalf("insertion point or root shared with the input")
	}
}

func TestInsertNoPointsNoChange(t *testing.T) {
	tr := xmltree.MustParse("<a><b/></a>")
	before := tr.XML()
	ins := Insert{P: xpath.MustParse("//zzz"), X: xmltree.MustParse("<c/>")}
	after, points, err := ins.Apply(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 0 || after.XML() != before || after.Root() != tr.Root() {
		t.Fatalf("empty insertion changed the tree")
	}
}

func TestInsertFreshClones(t *testing.T) {
	// Each insertion point receives its own fresh clone of X with disjoint
	// node identities.
	tr := xmltree.MustParse("<r><b/><b/></r>")
	ins := Insert{P: xpath.MustParse("r/b"), X: xmltree.MustParse("<x><y/></x>")}
	after, _, err := ins.Apply(tr)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, n := range after.Nodes() {
		if seen[n.ID()] {
			t.Fatalf("duplicate id %d after insert", n.ID())
		}
		seen[n.ID()] = true
	}
	if after.Size() != 7 {
		t.Fatalf("size = %d, want 7", after.Size())
	}
}

func TestDeleteApply(t *testing.T) {
	tr := xmltree.MustParse("<r><a><x/></a><a/><b/></r>")
	d := Delete{P: xpath.MustParse("r/a")}
	after, points, err := d.Apply(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("deletion points = %d, want 2", len(points))
	}
	if after.Size() != 2 {
		t.Fatalf("size = %d, want 2: %s", after.Size(), after.XML())
	}
	if tr.Size() != 5 {
		t.Fatalf("Apply changed its input: %s", tr.XML())
	}
	// Modified: the root lost children, so it is a copy; b is shared.
	if after.Root() == tr.Root() {
		t.Fatalf("root shared with the input")
	}
	if b := tr.Root().Children()[2]; after.NodeByID(b.ID()) != b {
		t.Fatalf("untouched sibling copied")
	}
}

func TestDeleteNestedPoints(t *testing.T) {
	// Deletion points nested under other deletion points vanish together.
	tr := xmltree.MustParse("<r><a><a/></a></r>")
	d := Delete{P: xpath.MustParse("//a")}
	after, _, err := d.Apply(tr)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != 1 {
		t.Fatalf("size = %d, want 1", after.Size())
	}
}

func TestDeleteRootRejected(t *testing.T) {
	d := Delete{P: xpath.MustParse("a")}
	if err := d.Validate(); err == nil {
		t.Fatalf("delete with Ø(p) = ROOT(p) accepted")
	}
	tr := xmltree.MustParse("<a/>")
	if _, _, err := d.Apply(tr); err == nil {
		t.Fatalf("Apply must refuse to delete the root")
	}
}

func TestApplyCopyLeavesOriginal(t *testing.T) {
	tr := xmltree.MustParse("<r><b/></r>")
	ins := Insert{P: xpath.MustParse("r/b"), X: xmltree.MustParse("<c/>")}
	after, err := ApplyCopy(ins, tr)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 2 {
		t.Fatalf("original mutated")
	}
	if after.Size() != 3 {
		t.Fatalf("copy not updated")
	}
	// Shared identities for pre-existing nodes.
	for _, n := range tr.Nodes() {
		if after.NodeByID(n.ID()) == nil {
			t.Fatalf("id %d lost in copy", n.ID())
		}
	}
}

// Section 1's motivating example: insert $x/B, <C/> conflicts with
// read $x//C but not with read $x//D.
func TestSection1Example(t *testing.T) {
	tr := xmltree.MustParse("<x><B/><D/></x>")
	ins := Insert{P: xpath.MustParse("/*/B"), X: xmltree.MustParse("<C/>")}

	readC := Read{P: xpath.MustParse("//C")}
	conflict, err := NodeConflictWitness(readC, ins, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !conflict {
		t.Fatalf("read //C must conflict with insert of <C/> under B on this tree")
	}

	readD := Read{P: xpath.MustParse("//D")}
	conflict, err = NodeConflictWitness(readD, ins, tr)
	if err != nil {
		t.Fatal(err)
	}
	if conflict {
		t.Fatalf("read //D must not conflict with inserting <C/>")
	}
}

// TestFigure3Semantics reproduces Figure 3 (experiment E2): deleting one
// of two isomorphic γ-subtrees is a node conflict under reference-based
// semantics but not a value conflict.
func TestFigure3Semantics(t *testing.T) {
	// W: root α with a δ child holding γ(β), and a direct γ(β) child.
	w := xmltree.MustParse("<alpha><delta><gamma><beta/></gamma></delta><gamma><beta/></gamma></alpha>")
	read := Read{P: xpath.MustParse("//gamma")}
	del := Delete{P: xpath.MustParse("alpha/delta")}

	node, err := NodeConflictWitness(read, del, w)
	if err != nil {
		t.Fatal(err)
	}
	if !node {
		t.Fatalf("Figure 3 must witness a node conflict (n is deleted)")
	}
	value, err := ValueConflictWitness(read, del, w)
	if err != nil {
		t.Fatal(err)
	}
	if value {
		t.Fatalf("Figure 3 must not witness a value conflict (n' survives, isomorphic)")
	}
	tree, err := TreeConflictWitness(read, del, w)
	if err != nil {
		t.Fatal(err)
	}
	if !tree {
		t.Fatalf("a node conflict implies a tree conflict")
	}
}

// Tree conflicts without node conflicts: the paper's example after
// Definition 3 — a read of the root and an insert below it.
func TestTreeConflictWithoutNodeConflict(t *testing.T) {
	w := xmltree.MustParse("<r><B/></r>")
	read := Read{P: xpath.MustParse("r")}
	ins := Insert{P: xpath.MustParse("r/B"), X: xmltree.MustParse("<x/>")}

	node, err := NodeConflictWitness(read, ins, w)
	if err != nil {
		t.Fatal(err)
	}
	if node {
		t.Fatalf("reading the root never node-conflicts with an insert")
	}
	tree, err := TreeConflictWitness(read, ins, w)
	if err != nil {
		t.Fatal(err)
	}
	if !tree {
		t.Fatalf("the root's subtree is modified: tree conflict expected")
	}
	value, err := ValueConflictWitness(read, ins, w)
	if err != nil {
		t.Fatal(err)
	}
	if !value {
		t.Fatalf("the root's subtree grows: value conflict expected")
	}
}

func TestNoConflictAtAll(t *testing.T) {
	w := xmltree.MustParse("<r><B/><D/></r>")
	read := Read{P: xpath.MustParse("r/D")}
	ins := Insert{P: xpath.MustParse("r/B"), X: xmltree.MustParse("<C/>")}
	for _, sem := range []Semantics{NodeSemantics, TreeSemantics, ValueSemantics} {
		got, err := ConflictWitness(sem, read, ins, w)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Fatalf("%v: unrelated read/insert flagged on this tree", sem)
		}
	}
}

func TestCommuteWitness(t *testing.T) {
	w := xmltree.MustParse("<r><a/></r>")
	// insert x under a, then delete x — versus delete x (no-op), then
	// insert x: the results differ.
	del := Delete{P: xpath.MustParse("r/a/x")}
	ins := Insert{P: xpath.MustParse("r/a"), X: xmltree.MustParse("<x/>")}
	diff, err := CommuteWitness(ins, del, w)
	if err != nil {
		t.Fatal(err)
	}
	if !diff {
		t.Fatalf("insert(a,x); delete(x) must differ from delete(x); insert(a,x)")
	}
	// Two inserts at independent points commute (up to isomorphism).
	w2 := xmltree.MustParse("<r><a/><b/></r>")
	i1 := Insert{P: xpath.MustParse("r/a"), X: xmltree.MustParse("<x/>")}
	i2 := Insert{P: xpath.MustParse("r/b"), X: xmltree.MustParse("<y/>")}
	diff, err = CommuteWitness(i1, i2, w2)
	if err != nil {
		t.Fatal(err)
	}
	if diff {
		t.Fatalf("independent inserts must commute")
	}
}

func TestSemanticsString(t *testing.T) {
	if NodeSemantics.String() != "node" || TreeSemantics.String() != "tree" || ValueSemantics.String() != "value" {
		t.Fatalf("semantics names wrong")
	}
	if Semantics(42).String() == "" {
		t.Fatalf("unknown semantics must still print")
	}
}

func TestConflictWitnessUnknownSemantics(t *testing.T) {
	w := xmltree.MustParse("<a/>")
	_, err := ConflictWitness(Semantics(9), Read{P: xpath.MustParse("a")}, Insert{P: xpath.MustParse("a"), X: xmltree.MustParse("<b/>")}, w)
	if err == nil {
		t.Fatalf("unknown semantics accepted")
	}
}

// Deleting one deletion point must not disturb evaluation of others: the
// points are computed before any mutation.
func TestDeletePointsSnapshot(t *testing.T) {
	tr := xmltree.MustParse("<r><a><b/></a><b/></r>")
	// //b selects the nested b and the top-level b; deleting the a subtree
	// first must not hide the nested b from the snapshot.
	d := Delete{P: xpath.MustParse("//b")}
	after, points, err := d.Apply(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	if after.Size() != 2 {
		t.Fatalf("size = %d, want 2", after.Size())
	}
}

func TestInsertPointsEvaluatedBeforeMutation(t *testing.T) {
	// insert //a, <a/> must not cascade: the new a nodes are not
	// insertion points.
	tr := xmltree.MustParse("<r><a/></r>")
	ins := Insert{P: xpath.MustParse("//a"), X: xmltree.MustParse("<a/>")}
	after, _, err := ins.Apply(tr)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != 3 {
		t.Fatalf("size = %d, want 3 (no cascade)", after.Size())
	}
	// And the result still evaluates consistently.
	if got := match.Eval(xpath.MustParse("//a"), after); len(got) != 2 {
		t.Fatalf("//a after insert = %d, want 2", len(got))
	}
}

func TestFiredSemantics(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		read string
		upd  Update
		want []Semantics
	}{
		{
			name: "insert below the result fires tree and value only",
			doc:  "<a><b/></a>",
			read: "//b",
			upd:  Insert{P: xpath.MustParse("/a/b"), X: xmltree.MustParse("<c/>")},
			want: []Semantics{TreeSemantics, ValueSemantics},
		},
		{
			name: "delete of the result fires all three",
			doc:  "<a><b/></a>",
			read: "//b",
			upd:  Delete{P: xpath.MustParse("/a/b")},
			want: []Semantics{NodeSemantics, TreeSemantics, ValueSemantics},
		},
		{
			name: "disjoint insert fires nothing",
			doc:  "<a><b/><c/></a>",
			read: "//b",
			upd:  Insert{P: xpath.MustParse("/a/c"), X: xmltree.MustParse("<d/>")},
			want: nil,
		},
		{
			name: "no-op delete fires nothing",
			doc:  "<a><b/><b/></a>",
			read: "/a/b",
			upd:  Delete{P: xpath.MustParse("/a/b[missing]")},
			want: nil,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := xmltree.MustParse(c.doc)
			got, err := FiredSemantics(Read{P: xpath.MustParse(c.read)}, c.upd, tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(c.want) {
				t.Fatalf("fired %v, want %v", got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("fired %v, want %v", got, c.want)
				}
			}
			// FiredSemantics must agree with the individual witness
			// checkers on every notion.
			for _, sem := range []Semantics{NodeSemantics, TreeSemantics, ValueSemantics} {
				single, err := ConflictWitness(sem, Read{P: xpath.MustParse(c.read)}, c.upd, tr)
				if err != nil {
					t.Fatal(err)
				}
				fired := false
				for _, f := range got {
					if f == sem {
						fired = true
					}
				}
				if single != fired {
					t.Fatalf("%s: FiredSemantics says %v, ConflictWitness says %v", sem, fired, single)
				}
			}
		})
	}
}
