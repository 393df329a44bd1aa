package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"xmlconflict/internal/ops"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

func mustInsert(expr, x string) ops.Insert {
	return ops.Insert{P: xpath.MustParse(expr), X: xmltree.MustParse(x)}
}

func mustDelete(expr string) ops.Delete {
	return ops.Delete{P: xpath.MustParse(expr)}
}

func TestSection1ReadInsertConflicts(t *testing.T) {
	// The paper's Section 1 program: insert $x/B, <C/> conflicts with
	// read $x//C but not with read $x//D.
	ins := mustInsert("/*/B", "<C/>")

	v, err := ReadInsertLinear(xpath.MustParse("//C"), ins, ops.NodeSemantics)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Conflict {
		t.Fatalf("//C vs insert(B, <C/>): want conflict, got %v", v)
	}
	if v.Witness == nil {
		t.Fatalf("linear detection must construct a witness")
	}

	v, err = ReadInsertLinear(xpath.MustParse("//D"), ins, ops.NodeSemantics)
	if err != nil {
		t.Fatal(err)
	}
	if v.Conflict {
		t.Fatalf("//D vs insert(B, <C/>): want no conflict, got %v", v)
	}
}

func TestSection1FunctionalExample(t *testing.T) {
	// let y = read $x/*/A; insert $x/B, <C/>: the insertion cannot affect
	// /*/A — no node conflict.
	ins := mustInsert("/*/B", "<C/>")
	v, err := ReadInsertLinear(xpath.MustParse("/*/*/A"), ins, ops.NodeSemantics)
	if err != nil {
		t.Fatal(err)
	}
	if v.Conflict {
		t.Fatalf("/*/*/A vs insert(/*/B, <C/>): want no conflict (inserted C has no A child), got %v", v)
	}
	// But inserting <C><A/></C> does conflict: the A inside the inserted
	// subtree becomes a new /*/*/A result... at depth 3, so still no.
	v, err = ReadInsertLinear(xpath.MustParse("/*/*/A"), mustInsert("/*/B", "<C><A/></C>"), ops.NodeSemantics)
	if err != nil {
		t.Fatal(err)
	}
	if v.Conflict {
		t.Fatalf("depth mismatch must prevent the conflict, got %v", v)
	}
	// Inserting <A/> directly under B: /*/*/A now gains the inserted node.
	v, err = ReadInsertLinear(xpath.MustParse("/*/*/A"), mustInsert("/*/B", "<A/>"), ops.NodeSemantics)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Conflict {
		t.Fatalf("/*/*/A vs insert(/*/B, <A/>): want conflict")
	}
}

func TestReadDeleteBasicCases(t *testing.T) {
	cases := []struct {
		read, del string
		want      bool
	}{
		{"//A", "//A", true},           // reading what is deleted
		{"//A", "/x/y", true},          // A could live under a deleted y
		{"/a/b", "/a/b", true},         // exact overlap
		{"/a/b", "/a/c", false},        // sibling deletion can't remove /a/b
		{"/a", "/a/b", false},          // the root is never deleted
		{"/a/b/c", "/a/b", true},       // ancestor deletion removes c
		{"/a/b", "/a/b/c", false},      // deleting below the output: no node conflict
		{"/a//c", "/a/b", true},        // c below a deleted b
		{"/x/y", "/q/r", false},        // disjoint root labels
		{"//*", "/a/b", true},          // wildcard read reaches deleted nodes
		{"/a/*/c", "/a/b", true},       // wildcard step over the deletion point
		{"/a/b", "//b", true},          // descendant delete hits /a/b
		{"/a", "//b", false},           // root read never node-conflicts
		{"/a/b/c", "/a/x[y]/c", false}, // branching delete: spine /a/x/c incompatible with /a/b/c
		{"/a/b/c", "/a/*[y]/c", true},  // branching delete whose spine wildcard covers b
	}
	for _, c := range cases {
		v, err := ReadDeleteLinear(xpath.MustParse(c.read), mustDelete(c.del), ops.NodeSemantics)
		if err != nil {
			t.Fatalf("read=%s del=%s: %v", c.read, c.del, err)
		}
		if v.Conflict != c.want {
			t.Errorf("ReadDelete(%s, %s) = %v, want %v", c.read, c.del, v.Conflict, c.want)
		}
		if v.Conflict && v.Witness == nil {
			t.Errorf("ReadDelete(%s, %s): conflict without witness", c.read, c.del)
		}
	}
}

func TestReadDeleteBranchingUpdate(t *testing.T) {
	// Corollary 1: only the read must be linear. The delete pattern
	// branches; its spine decides.
	v, err := ReadDeleteLinear(xpath.MustParse("/a/b/c"), mustDelete("/a/b[y][.//z]"), ops.NodeSemantics)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Conflict {
		t.Fatalf("branching delete spine /a/b must conflict with read /a/b/c")
	}
	// The witness must make the full branching pattern embed.
	if v.Witness == nil {
		t.Fatalf("no witness")
	}
	v2, err := ReadDeleteLinear(xpath.MustParse("/a/q"), mustDelete("/a/b[y][.//z]"), ops.NodeSemantics)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Conflict {
		t.Fatalf("delete of b cannot remove /a/q")
	}
}

func TestReadInsertBasicCases(t *testing.T) {
	cases := []struct {
		read, ins, x string
		want         bool
	}{
		{"//C", "/*/B", "<C/>", true},
		{"//D", "/*/B", "<C/>", false},
		{"/a/b/c", "/a/b", "<c/>", true},
		{"/a/b/c", "/a/b", "<d/>", false},
		{"/a/b/c/d", "/a/b", "<c><d/></c>", true},
		{"/a/b/c/d", "/a/b", "<c><e/></c>", false},
		{"/a//d", "/a/b", "<c><d/></c>", true}, // d anywhere inside X
		{"/a/d", "/a/b", "<c><d/></c>", false}, // child edge needs X's root
		{"/a", "/a", "<x/>", false},            // reading the root: no node conflict
		{"//x", "//y", "<x/>", true},
		{"/a/*", "/a", "<anything/>", true}, // wildcard tail matches X's root
		{"/q/r", "/z", "<r/>", false},       // roots incompatible
	}
	for _, c := range cases {
		v, err := ReadInsertLinear(xpath.MustParse(c.read), mustInsert(c.ins, c.x), ops.NodeSemantics)
		if err != nil {
			t.Fatalf("read=%s ins=%s x=%s: %v", c.read, c.ins, c.x, err)
		}
		if v.Conflict != c.want {
			t.Errorf("ReadInsert(%s, %s, %s) = %v, want %v", c.read, c.ins, c.x, v.Conflict, c.want)
		}
	}
}

func TestReadInsertBranchingUpdate(t *testing.T) {
	// Corollary 2: insert pattern may branch.
	v, err := ReadInsertLinear(xpath.MustParse("/a/b/c"), mustInsert("/a/b[.//q]", "<c/>"), ops.NodeSemantics)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Conflict {
		t.Fatalf("branching insert must conflict via its spine")
	}
}

func TestTreeSemanticsExamples(t *testing.T) {
	// Reading the root tree-conflicts with any insert below it.
	v, err := ReadInsertLinear(xpath.MustParse("/a"), mustInsert("/a/b", "<x/>"), ops.TreeSemantics)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Conflict {
		t.Fatalf("tree semantics: insert below the read output must conflict")
	}
	// Node semantics disagrees.
	v, err = ReadInsertLinear(xpath.MustParse("/a"), mustInsert("/a/b", "<x/>"), ops.NodeSemantics)
	if err != nil {
		t.Fatal(err)
	}
	if v.Conflict {
		t.Fatalf("node semantics: reading the root never conflicts with inserts")
	}
	// Disjoint subtrees: no conflict under any semantics.
	for _, sem := range []ops.Semantics{ops.NodeSemantics, ops.TreeSemantics, ops.ValueSemantics} {
		v, err := ReadInsertLinear(xpath.MustParse("/a/q/r"), mustInsert("/a/b", "<x/>"), sem)
		if err != nil {
			t.Fatal(err)
		}
		if v.Conflict {
			t.Fatalf("%v: disjoint read/insert conflicted", sem)
		}
	}
}

func TestValueSemanticsDelete(t *testing.T) {
	v, err := ReadDeleteLinear(xpath.MustParse("/a"), mustDelete("/a//b"), ops.ValueSemantics)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Conflict {
		t.Fatalf("value semantics: deleting below the read output must conflict")
	}
	if v.Witness == nil {
		t.Fatalf("no witness")
	}
}

func TestDetectDispatch(t *testing.T) {
	// Linear read → linear method.
	v, err := Detect(ops.Read{P: xpath.MustParse("//C")}, mustInsert("/*/B", "<C/>"), ops.NodeSemantics, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Method != "linear" || !v.Conflict || !v.Complete {
		t.Fatalf("dispatch wrong: %+v", v)
	}
	// Branching read → search method.
	v, err = Detect(ops.Read{P: xpath.MustParse("/a[q]/b")}, mustInsert("/a", "<b/>"), ops.NodeSemantics, SearchOptions{MaxNodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	if v.Method != "search" {
		t.Fatalf("branching read should use search, got %q", v.Method)
	}
	if !v.Conflict {
		t.Fatalf("search should find the small witness: %+v", v)
	}
}

// --- property tests: linear algorithms vs exhaustive search ---

// searchOracle runs the bounded exhaustive search as an independent
// decision procedure for small instances.
func searchOracle(t *testing.T, r ops.Read, u ops.Update, sem ops.Semantics, maxNodes int) bool {
	t.Helper()
	v, err := SearchConflict(r, u, sem, SearchOptions{MaxNodes: maxNodes, MaxCandidates: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	return v.Conflict
}

func randLinear(rng *rand.Rand, maxSize int) *pattern.Pattern {
	return pattern.RandomLinear(rng, rng.Intn(maxSize)+1, []string{"a", "b"}, 0.3, 0.4)
}

func TestReadDeleteLinearVsSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive cross-check")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randLinear(rng, 3)
		dp := randLinear(rng, 3)
		if dp.Output() == dp.Root() {
			dp = dp.Clone()
			n := dp.AddChild(dp.Output(), pattern.Child, "a")
			dp.SetOutput(n)
		}
		d := ops.Delete{P: dp}
		v, err := ReadDeleteLinear(r, d, ops.NodeSemantics)
		if err != nil {
			t.Logf("r=%s d=%s: %v", r, dp, err)
			return false
		}
		// Positive verdicts carry a verified witness (checked inside).
		// Negative verdicts must have no witness within the search bound.
		if !v.Conflict {
			if searchOracle(t, ops.Read{P: r}, d, ops.NodeSemantics, 6) {
				t.Logf("UNSOUND: r=%s d=%s declared conflict-free but search found a witness", r, dp)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestReadInsertLinearVsSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive cross-check")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randLinear(rng, 3)
		ip := randLinear(rng, 3)
		x := xmltree.Random(rng, xmltree.RandomConfig{Size: rng.Intn(3) + 1, Labels: []string{"a", "b"}})
		ins := ops.Insert{P: ip, X: x}
		v, err := ReadInsertLinear(r, ins, ops.NodeSemantics)
		if err != nil {
			t.Logf("r=%s i=%s x=%s: %v", r, ip, x, err)
			return false
		}
		if !v.Conflict {
			if searchOracle(t, ops.Read{P: r}, ins, ops.NodeSemantics, 6) {
				t.Logf("UNSOUND: r=%s i=%s x=%s declared conflict-free but search found a witness", r, ip, x)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearAllSemanticsConstructVerifiedWitnesses(t *testing.T) {
	// Every positive verdict under every semantics carries a witness that
	// the Lemma 1 checker accepts — ReadInsertLinear/ReadDeleteLinear
	// verify internally and error out otherwise, so this exercises many
	// random instances for construction robustness.
	f := func(seed int64, semPick uint8, isInsert bool) bool {
		rng := rand.New(rand.NewSource(seed))
		sem := []ops.Semantics{ops.NodeSemantics, ops.TreeSemantics, ops.ValueSemantics}[semPick%3]
		r := randLinear(rng, 4)
		if isInsert {
			ip := randLinear(rng, 4)
			x := xmltree.Random(rng, xmltree.RandomConfig{Size: rng.Intn(4) + 1, Labels: []string{"a", "b"}})
			_, err := ReadInsertLinear(r, ops.Insert{P: ip, X: x}, sem)
			if err != nil {
				t.Logf("insert: sem=%v r=%s i=%s x=%s: %v", sem, r, ip, x, err)
				return false
			}
			return true
		}
		dp := randLinear(rng, 4)
		if dp.Output() == dp.Root() {
			n := dp.AddChild(dp.Output(), pattern.Child, "a")
			dp.SetOutput(n)
		}
		_, err := ReadDeleteLinear(r, ops.Delete{P: dp}, sem)
		if err != nil {
			t.Logf("delete: sem=%v r=%s d=%s: %v", sem, r, dp, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearBranchingUpdatesVerified(t *testing.T) {
	// Corollaries 1-2 with random branching update patterns: constructed
	// witnesses must still verify (augmentForUpdate correctness).
	f := func(seed int64, isInsert bool) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randLinear(rng, 4)
		up := pattern.Random(rng, pattern.RandomConfig{
			Size: rng.Intn(5) + 2, Labels: []string{"a", "b"},
			PWildcard: 0.25, PDescendant: 0.35, PBranch: 0.5,
		})
		if isInsert {
			x := xmltree.Random(rng, xmltree.RandomConfig{Size: rng.Intn(3) + 1, Labels: []string{"a", "b"}})
			_, err := ReadInsertLinear(r, ops.Insert{P: up, X: x}, ops.NodeSemantics)
			if err != nil {
				t.Logf("insert: r=%s u=%s: %v", r, up, err)
				return false
			}
			return true
		}
		if up.Output() == up.Root() {
			n := up.AddChild(up.Output(), pattern.Child, "a")
			up.SetOutput(n)
		}
		_, err := ReadDeleteLinear(r, ops.Delete{P: up}, ops.NodeSemantics)
		if err != nil {
			t.Logf("delete: r=%s u=%s: %v", r, up, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLemma2TreeValueEquivalence(t *testing.T) {
	// E9: for linear patterns, tree conflicts and value conflicts
	// coincide — the detector must return the same verdict under both.
	f := func(seed int64, isInsert bool) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randLinear(rng, 4)
		if isInsert {
			ip := randLinear(rng, 4)
			x := xmltree.Random(rng, xmltree.RandomConfig{Size: rng.Intn(3) + 1, Labels: []string{"a", "b"}})
			ins := ops.Insert{P: ip, X: x}
			vt, err1 := ReadInsertLinear(r, ins, ops.TreeSemantics)
			vv, err2 := ReadInsertLinear(r, ins, ops.ValueSemantics)
			if err1 != nil || err2 != nil {
				return false
			}
			return vt.Conflict == vv.Conflict
		}
		dp := randLinear(rng, 4)
		if dp.Output() == dp.Root() {
			n := dp.AddChild(dp.Output(), pattern.Child, "a")
			dp.SetOutput(n)
		}
		d := ops.Delete{P: dp}
		vt, err1 := ReadDeleteLinear(r, d, ops.TreeSemantics)
		vv, err2 := ReadDeleteLinear(r, d, ops.ValueSemantics)
		if err1 != nil || err2 != nil {
			return false
		}
		return vt.Conflict == vv.Conflict
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVerdictString(t *testing.T) {
	v := Verdict{Conflict: true, Method: "linear", Complete: true, Detail: "x"}
	if v.String() != "conflict: x [linear]" {
		t.Fatalf("String = %q", v.String())
	}
	v = Verdict{Method: "search"}
	if v.String() != "no conflict (incomplete search) [search]" {
		t.Fatalf("String = %q", v.String())
	}
}

func TestDetectRejectsInvalidPatterns(t *testing.T) {
	bad := pattern.New("a")
	bad.SetOutput(pattern.New("b").Root())
	if _, err := Detect(ops.Read{P: bad}, mustInsert("/a", "<x/>"), ops.NodeSemantics, SearchOptions{}); err == nil {
		t.Fatalf("invalid read pattern accepted")
	}
}

// longLinearPair is a 2 000-step linear read against a one-step insert:
// the linear detector decides it in about a second uncached.
func longLinearPair() (ops.Read, ops.Insert) {
	return ops.Read{P: xpath.MustParse("/" + strings.Repeat("a/", 1999) + "a")},
		ops.Insert{P: xpath.MustParse("/a"), X: xmltree.MustParse("<a/>")}
}

// TestLinearDetectorHonoursDeadline: the linear detectors poll the
// deadline once per read edge, so a long read ends incomplete soon after
// its deadline instead of running to the end.
func TestLinearDetectorHonoursDeadline(t *testing.T) {
	r, ins := longLinearPair()
	start := time.Now()
	v, err := Detect(r, ins, ops.NodeSemantics, SearchOptions{}.WithTimeout(20*time.Millisecond))
	el := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if v.Complete || v.Reason != ReasonDeadline || v.Method != "linear" {
		t.Fatalf("verdict %+v, want an incomplete linear verdict with reason %q", v, ReasonDeadline)
	}
	if el > 200*time.Millisecond {
		t.Fatalf("detection took %v past a 20ms deadline", el)
	}
	d := ops.Delete{P: xpath.MustParse("/a/b")}
	v, err = Detect(r, d, ops.NodeSemantics, SearchOptions{}.WithDeadline(time.Now()))
	if err != nil || v.Complete || v.Reason != ReasonDeadline {
		t.Fatalf("delete: verdict %+v, err %v; want incomplete with reason %q", v, err, ReasonDeadline)
	}
}

// TestLinearDetectorHonoursCancel: a context canceled while a long linear
// read is being decided ends it with ReasonCanceled and the context's
// error.
func TestLinearDetectorHonoursCancel(t *testing.T) {
	r, ins := longLinearPair()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	v, err := Detect(r, ins, ops.NodeSemantics, SearchOptions{}.WithContext(ctx))
	if !errors.Is(err, context.Canceled) || v.Complete || v.Reason != ReasonCanceled {
		t.Fatalf("verdict %+v, err %v; want incomplete with reason %q and context.Canceled", v, err, ReasonCanceled)
	}
	if el := time.Since(start); el > 200*time.Millisecond {
		t.Fatalf("detection took %v past a cancel at 20ms", el)
	}
}
