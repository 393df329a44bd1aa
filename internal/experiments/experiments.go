// Package experiments regenerates every experiment of EXPERIMENTS.md (the
// reproduction of the paper's theorems, lemmas and figures — the paper is
// a theory paper and has no measurement tables of its own, so each
// experiment validates a claim's correctness and measures its complexity
// shape). cmd/xbench is the command-line front end; bench_test.go holds
// the testing.B anchors.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"xmlconflict/internal/containment"
	"xmlconflict/internal/core"
	"xmlconflict/internal/generate"
	"xmlconflict/internal/match"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/program"
	"xmlconflict/internal/schema"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// Table is one experiment's regenerated output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Metrics carries the telemetry counters accumulated while the
	// experiment ran (candidates examined, automata products, cache
	// traffic, ...). Experiments that do not exercise the instrumented
	// decision procedures leave it nil. xbench -json emits it verbatim.
	Metrics map[string]int64
}

// counterMap extracts the counters of a metrics registry as a plain map
// for Table.Metrics, or nil when nothing was recorded.
func counterMap(m *telemetry.Metrics) map[string]int64 {
	snap := m.Snapshot()
	if len(snap.Counters) == 0 {
		return nil
	}
	return snap.Counters
}

// All runs every experiment and returns the tables in order. The seed
// fixes all workloads; reps scales the averaging effort (1 = quick).
func All(seed int64, reps int) []Table {
	return []Table{
		E1(seed, reps),
		E2(),
		E3(seed, reps),
		E4(seed, reps),
		E5(seed, reps),
		E6(seed),
		E7(),
		E8(),
		E9(seed),
		E10(seed, reps),
		E11(),
		E12(),
		E13(),
		E14(seed, reps),
		E15(seed, reps),
		E16(),
		E17(seed, reps),
		E18(seed, reps),
		E19(seed, reps),
	}
}

// ByID runs a single experiment by its identifier.
func ByID(id string, seed int64, reps int) (Table, error) {
	switch id {
	case "E1":
		return E1(seed, reps), nil
	case "E2":
		return E2(), nil
	case "E3":
		return E3(seed, reps), nil
	case "E4":
		return E4(seed, reps), nil
	case "E5":
		return E5(seed, reps), nil
	case "E6":
		return E6(seed), nil
	case "E7":
		return E7(), nil
	case "E8":
		return E8(), nil
	case "E9":
		return E9(seed), nil
	case "E10":
		return E10(seed, reps), nil
	case "E11":
		return E11(), nil
	case "E12":
		return E12(), nil
	case "E13":
		return E13(), nil
	case "E14":
		return E14(seed, reps), nil
	case "E15":
		return E15(seed, reps), nil
	case "E16":
		return E16(), nil
	case "E17":
		return E17(seed, reps), nil
	case "E18":
		return E18(seed, reps), nil
	case "E19":
		return E19(seed, reps), nil
	default:
		return Table{}, fmt.Errorf("experiments: unknown experiment %q", id)
	}
}

func dur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// timeIt runs f reps times and returns the mean duration.
func timeIt(reps int, f func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return time.Since(start) / time.Duration(reps)
}

// E1 — Figure 2 / Section 2.3: the embedding evaluator is correct (spot-
// checked against the Figure 2 instance) and costs at most O(|t|·|p|).
func E1(seed int64, reps int) Table {
	t := Table{
		ID:     "E1",
		Title:  "Embedding evaluation scaling (Fig. 2, §2.3)",
		Header: []string{"|t|", "|p|", "mean eval time", "time/node"},
	}
	// Correctness spot check: Figure 2.
	fig2 := xmltree.MustParse("<a><b><d/><e><f/></e></b><c/></a>")
	p2 := xpath.MustParse("a[.//c]/b[d][*//f]")
	res := match.Eval(p2, fig2)
	if len(res) == 1 && res[0].Label() == "b" {
		t.Notes = append(t.Notes, "Figure 2 instance: [[p]](t) = {b} — matches the paper")
	} else {
		t.Notes = append(t.Notes, "Figure 2 instance: MISMATCH")
	}
	rng := rand.New(rand.NewSource(seed))
	for _, n := range []int{100, 1000, 10_000, 100_000} {
		doc := generate.DocumentScale(rng, n)
		for _, m := range []int{4, 16, 64} {
			p := pattern.Random(rand.New(rand.NewSource(seed+int64(m))), pattern.RandomConfig{
				Size: m, Labels: []string{"a", "b", "c", "d"},
				PWildcard: 0.2, PDescendant: 0.3, PBranch: 0.4,
			})
			r := max(1, reps)
			if n >= 100_000 {
				r = 1
			}
			d := timeIt(r, func() { match.Eval(p, doc) })
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), fmt.Sprint(m), dur(d),
				fmt.Sprintf("%.0fns", float64(d.Nanoseconds())/float64(n)),
			})
		}
	}
	t.Notes = append(t.Notes, "expected shape: time/node at most flat in |t| for fixed |p|: O(|t|·|p|) is an upper bound,",
		"and a pattern that reaches less of t costs less (E15)")
	return t
}

// E2 — Figure 3 / Definitions 3-6: the three conflict semantics diverge
// exactly as the figure shows.
func E2() Table {
	t := Table{
		ID:     "E2",
		Title:  "Conflict semantics divergence (Fig. 3, Defs 3-6)",
		Header: []string{"scenario", "node", "tree", "value"},
	}
	w := xmltree.MustParse("<alpha><delta><gamma><beta/></gamma></delta><gamma><beta/></gamma></alpha>")
	read := ops.Read{P: xpath.MustParse("//gamma")}
	del := ops.Delete{P: xpath.MustParse("alpha/delta")}
	row := func(name string, r ops.Read, u ops.Update, tr *xmltree.Tree) {
		n, _ := ops.NodeConflictWitness(r, u, tr)
		tc, _ := ops.TreeConflictWitness(r, u, tr)
		v, _ := ops.ValueConflictWitness(r, u, tr)
		t.Rows = append(t.Rows, []string{name, fmt.Sprint(n), fmt.Sprint(tc), fmt.Sprint(v)})
	}
	row("Fig.3: delete one of two isomorphic γ", read, del, w)
	w2 := xmltree.MustParse("<r><B/></r>")
	row("root read vs insert below (Def 3 discussion)",
		ops.Read{P: xpath.MustParse("r")},
		ops.Insert{P: xpath.MustParse("r/B"), X: xmltree.MustParse("<x/>")}, w2)
	row("disjoint read/insert",
		ops.Read{P: xpath.MustParse("r/D")},
		ops.Insert{P: xpath.MustParse("r/B"), X: xmltree.MustParse("<C/>")},
		xmltree.MustParse("<r><B/><D/></r>"))
	t.Notes = append(t.Notes,
		"paper: Fig.3 is a node conflict but NOT a value conflict; the root-read case is a tree/value conflict but NOT a node conflict")
	return t
}

// linearConflictSweep times a linear detector over random pairs of
// growing size.
func linearConflictSweep(id, title string, seed int64, reps int, isInsert bool) Table {
	m := telemetry.New()
	t := Table{
		ID:     id,
		Title:  title,
		Header: []string{"|pattern|", "mean detect time", "conflict fraction"},
	}
	for _, size := range []int{2, 4, 8, 16, 32, 64, 128} {
		rng := rand.New(rand.NewSource(seed + int64(size)))
		const pairs = 20
		type instance struct {
			r ops.Read
			u ops.Update
		}
		var insts []instance
		for i := 0; i < pairs; i++ {
			r, up := generate.LinearPair(rng, size)
			if isInsert {
				x := xmltree.Random(rng, xmltree.RandomConfig{Size: 4, Labels: []string{"a", "b", "c"}})
				insts = append(insts, instance{ops.Read{P: r}, ops.Insert{P: up, X: x}})
			} else {
				if up.Output() == up.Root() {
					n := up.AddChild(up.Output(), pattern.Child, "a")
					up.SetOutput(n)
				}
				insts = append(insts, instance{ops.Read{P: r}, ops.Delete{P: up}})
			}
		}
		conflicts := 0
		for _, in := range insts {
			v, err := core.Detect(in.r, in.u, ops.NodeSemantics, tracedOpts(core.SearchOptions{}.WithStats(m)))
			if err != nil {
				t.Notes = append(t.Notes, "ERROR: "+err.Error())
				continue
			}
			if v.Conflict {
				conflicts++
			}
		}
		d := timeIt(max(1, reps), func() {
			for _, in := range insts {
				_, _ = core.Detect(in.r, in.u, ops.NodeSemantics, tracedOpts(core.SearchOptions{}))
			}
		}) / pairs
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(size), dur(d), fmt.Sprintf("%.2f", float64(conflicts)/pairs),
		})
	}
	t.Notes = append(t.Notes, "expected shape: polynomial growth (roughly quadratic in pattern size)")
	t.Metrics = counterMap(m)
	return t
}

// E3 — Theorem 1: read-delete detection for linear patterns is PTIME.
func E3(seed int64, reps int) Table {
	return linearConflictSweep("E3", "Read-delete linear detection scaling (Thm 1)", seed, reps, false)
}

// E4 — Theorem 2: read-insert detection for linear patterns is PTIME.
func E4(seed int64, reps int) Table {
	return linearConflictSweep("E4", "Read-insert linear detection scaling (Thm 2)", seed, reps, true)
}

// E5 — Corollaries 1-2: the update pattern may branch; detection stays
// polynomial as the number of predicates grows.
func E5(seed int64, reps int) Table {
	t := Table{
		ID:     "E5",
		Title:  "Branching update patterns with a linear read (Cors 1-2)",
		Header: []string{"predicates", "insert detect", "delete detect"},
	}
	rng := rand.New(rand.NewSource(seed))
	read := ops.Read{P: pattern.RandomLinear(rng, 6, []string{"a", "b", "c"}, 0.25, 0.35)}
	for _, b := range []int{0, 1, 2, 4, 8, 16} {
		// A spine of 4 plus b predicate branches.
		up := pattern.RandomLinear(rand.New(rand.NewSource(seed+int64(b))), 4, []string{"a", "b", "c"}, 0.25, 0.35)
		spine := up.Spine()
		brng := rand.New(rand.NewSource(seed + 100 + int64(b)))
		for i := 0; i < b; i++ {
			anchor := spine[brng.Intn(len(spine))]
			ax := pattern.Child
			if brng.Float64() < 0.4 {
				ax = pattern.Descendant
			}
			up.AddChild(anchor, ax, []string{"a", "b", "c"}[brng.Intn(3)])
		}
		x := xmltree.MustParse("<a/>")
		dIns := timeIt(max(1, reps*5), func() {
			_, _ = core.ReadInsertLinear(read.P, ops.Insert{P: up, X: x}, ops.NodeSemantics)
		})
		var dDel time.Duration
		if up.Output() != up.Root() {
			dDel = timeIt(max(1, reps*5), func() {
				_, _ = core.ReadDeleteLinear(read.P, ops.Delete{P: up}, ops.NodeSemantics)
			})
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(b), dur(dIns), dur(dDel)})
	}
	t.Notes = append(t.Notes, "expected shape: flat-to-linear in predicate count (only the spine is matched)")
	return t
}

// E6 — Lemmas 9-11: marking + reparenting shrink witnesses below the
// |R|·|U|·(k+1) bound regardless of how inflated the input witness is.
func E6(seed int64) Table {
	t := Table{
		ID:     "E6",
		Title:  "Witness minimization by marking/reparenting (Lemmas 9-11)",
		Header: []string{"inflated |W|", "shrunk |W|", "Lemma 11 bound", "shrink time", "verified"},
	}
	r := xpath.MustParse("//C")
	ins := ops.Insert{P: xpath.MustParse("/*/B"), X: xmltree.MustParse("<C/>")}
	read := ops.Read{P: r}
	v, err := core.ReadInsertLinear(r, ins, ops.NodeSemantics)
	if err != nil || !v.Conflict {
		t.Notes = append(t.Notes, "setup failed")
		return t
	}
	bound := core.WitnessBound(read, ins)
	rng := rand.New(rand.NewSource(seed))
	for _, pad := range []int{100, 1000, 10_000, 100_000} {
		big := v.Witness.Clone()
		// Hang irrelevant chains and stretch the spine region with noise.
		// size counts the nodes as they are added: Size walks the whole
		// tree, which would make the padding quadratic.
		nodes := big.Nodes()
		size := big.Size()
		for size < pad {
			n := nodes[rng.Intn(len(nodes))]
			c := big.AddChild(n, "pad")
			size++
			for j := 0; j < 30 && size < pad; j++ {
				c = big.AddChild(c, "pad")
				size++
			}
		}
		start := time.Now()
		small, err := core.ShrinkWitness(big, read, ins)
		el := time.Since(start)
		if err != nil {
			t.Rows = append(t.Rows, []string{fmt.Sprint(big.Size()), "-", fmt.Sprint(bound), dur(el), "ERROR: " + err.Error()})
			continue
		}
		ok, _ := ops.NodeConflictWitness(read, ins, small)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(big.Size()), fmt.Sprint(small.Size()), fmt.Sprint(bound), dur(el), fmt.Sprint(ok),
		})
	}
	t.Notes = append(t.Notes, "expected shape: shrunk size constant and within the bound; time roughly linear in the inflated size")
	return t
}

// hardnessSweep runs the reduction family for E7/E8: the reduction plus a
// constructed witness decide each instance in polynomial time, while the
// blind exhaustive search (the literal NP oracle) faces a search space
// that explodes with the instance size.
func hardnessSweep(id, title string, useDelete bool) Table {
	m := telemetry.New()
	t := Table{
		ID:    id,
		Title: title,
		Header: []string{
			"instance", "contained?", "containment", "reduce+witness",
			"|W|", "search space ≤|W|", "blind search (cap 150k)",
		},
	}
	type inst struct {
		name string
		p, q *pattern.Pattern
	}
	tiny := inst{name: "p=//b q=/a/b"}
	tiny.p = xpath.MustParse("//b")
	tiny.q = xpath.MustParse("/a/b")
	insts := []inst{tiny}
	for n := 1; n <= 3; n++ {
		p, q := generate.HardPair(n)
		insts = append(insts, inst{fmt.Sprintf("HardPair(%d)", n), p, q})
	}
	for _, in := range insts {
		start := time.Now()
		contained, counter := containment.Contained(in.p, in.q)
		dCont := time.Since(start)

		var r ops.Read
		var u ops.Update
		if useDelete {
			rr, dd := containment.ReduceToReadDelete(in.p, in.q)
			r, u = rr, dd
		} else {
			rr, ii := containment.ReduceToReadInsert(in.p, in.q)
			r, u = rr, ii
		}
		// Constructive witness (Figures 7d / 8c) when not contained: this
		// is the polynomial path — the reduction is decided without search.
		start = time.Now()
		witnessOK := "n/a (no conflict)"
		wSize := 0
		if !contained {
			var w *xmltree.Tree
			if useDelete {
				w = containment.ReductionWitnessDelete(in.p, in.q, counter)
			} else {
				w = containment.ReductionWitnessInsert(in.p, in.q, counter)
			}
			ok, _ := ops.NodeConflictWitness(r, u, w)
			witnessOK = fmt.Sprint(ok)
			wSize = w.Size()
		}
		dRed := time.Since(start)

		// Search-space size: canonical trees up to the constructed
		// witness size over the restricted alphabet. Counting itself is
		// an enumeration, so it carries its own hard cap.
		alphabet := core.SearchAlphabet(r, u)
		space := "-"
		if wSize > 0 {
			const countCap = 2_000_000
			total := core.CountTreesUpTo(len(alphabet), wSize, countCap)
			if total >= countCap {
				space = "> 2e6"
			} else {
				space = fmt.Sprint(total)
			}
		}

		// Blind exhaustive search with a candidate cap (the NP oracle).
		start = time.Now()
		v, err := core.SearchConflict(r, u, ops.NodeSemantics, tracedOpts(core.SearchOptions{
			MaxNodes: maxInt(wSize, 6), MaxCandidates: 150_000,
		}.WithStats(m)))
		dSearch := time.Since(start)
		searchCol := "error"
		if err == nil {
			switch {
			case v.Conflict:
				searchCol = fmt.Sprintf("found in %s", dur(dSearch))
			case v.Complete:
				searchCol = fmt.Sprintf("no conflict (%s)", dur(dSearch))
			default:
				searchCol = fmt.Sprintf("gave up after %s", dur(dSearch))
			}
		}
		t.Rows = append(t.Rows, []string{
			in.name, fmt.Sprint(contained), dur(dCont),
			dur(dRed) + " ok=" + witnessOK,
			fmt.Sprint(wSize), space, searchCol,
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: the containment check + reduction decide every instance in microseconds",
		"with a verified witness, while the blind NP-oracle search cannot settle even the",
		"smallest instance within its candidate cap — witnesses of 7+ nodes over 6+ labels sit",
		"beyond millions of candidates (see the search-space column)",
		"HardPair(1) is the contained (conflict-free) member of the family")
	t.Metrics = counterMap(m)
	return t
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// E7 — Theorem 4 / Figure 7: non-containment ⇔ read-insert conflict.
func E7() Table {
	return hardnessSweep("E7", "NP-hardness via read-insert reduction (Thm 4, Fig. 7)", false)
}

// E8 — Theorem 6 / Figure 8: non-containment ⇔ read-delete conflict.
func E8() Table {
	return hardnessSweep("E8", "NP-hardness via read-delete reduction (Thm 6, Fig. 8)", true)
}

// E9 — Lemma 2: tree and value conflicts coincide for linear patterns.
func E9(seed int64) Table {
	t := Table{
		ID:     "E9",
		Title:  "Tree ⇔ value conflict equivalence for linear patterns (Lemma 2)",
		Header: []string{"instances", "agreements", "disagreements"},
	}
	rng := rand.New(rand.NewSource(seed))
	agree, disagree := 0, 0
	for i := 0; i < 300; i++ {
		r := pattern.RandomLinear(rng, rng.Intn(4)+1, []string{"a", "b"}, 0.3, 0.4)
		var vt, vv core.Verdict
		var e1, e2 error
		if i%2 == 0 {
			ip := pattern.RandomLinear(rng, rng.Intn(4)+1, []string{"a", "b"}, 0.3, 0.4)
			x := xmltree.Random(rng, xmltree.RandomConfig{Size: rng.Intn(3) + 1, Labels: []string{"a", "b"}})
			ins := ops.Insert{P: ip, X: x}
			vt, e1 = core.ReadInsertLinear(r, ins, ops.TreeSemantics)
			vv, e2 = core.ReadInsertLinear(r, ins, ops.ValueSemantics)
		} else {
			dp := pattern.RandomLinear(rng, rng.Intn(4)+1, []string{"a", "b"}, 0.3, 0.4)
			if dp.Output() == dp.Root() {
				n := dp.AddChild(dp.Output(), pattern.Child, "a")
				dp.SetOutput(n)
			}
			del := ops.Delete{P: dp}
			vt, e1 = core.ReadDeleteLinear(r, del, ops.TreeSemantics)
			vv, e2 = core.ReadDeleteLinear(r, del, ops.ValueSemantics)
		}
		if e1 != nil || e2 != nil {
			disagree++
			continue
		}
		if vt.Conflict == vv.Conflict {
			agree++
		} else {
			disagree++
		}
	}
	t.Rows = append(t.Rows, []string{"300", fmt.Sprint(agree), fmt.Sprint(disagree)})
	t.Notes = append(t.Notes, "expected: zero disagreements (Lemma 2)")
	return t
}

// E10 — REMARK after Theorem 1: matcher ablation, NFA product vs direct DP.
func E10(seed int64, reps int) Table {
	t := Table{
		ID:     "E10",
		Title:  "Matcher ablation: NFA product vs dynamic programming (§4.1 REMARK)",
		Header: []string{"|pattern|", "NFA matcher", "DP matcher", "agree"},
	}
	for _, size := range []int{4, 16, 64, 256} {
		rng := rand.New(rand.NewSource(seed + int64(size)))
		l := pattern.RandomLinear(rng, size, []string{"a", "b", "c"}, 0.25, 0.35)
		lp := pattern.RandomLinear(rng, size, []string{"a", "b", "c"}, 0.25, 0.35)
		_, nfaRes, _ := core.MatchWeak(l, lp, "zf")
		dpRes, _ := core.MatchWeakDP(l, lp)
		dNFA := timeIt(max(1, reps*5), func() { _, _, _ = core.MatchWeak(l, lp, "zf") })
		dDP := timeIt(max(1, reps*5), func() { _, _ = core.MatchWeakDP(l, lp) })
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(size), dur(dNFA), dur(dDP), fmt.Sprint(nfaRes == dpRes),
		})
	}
	t.Notes = append(t.Notes, "both are polynomial; the DP avoids automata construction overhead")
	return t
}

// E11 — Section 6: update/update commutation conflicts under value
// semantics — the concrete-tree check and the full decision procedure
// (static special cases + bounded search).
func E11() Table {
	t := Table{
		ID:     "E11",
		Title:  "Complex update pairs: commutation under value semantics (§6)",
		Header: []string{"pair", "commutes on example tree", "decision (all trees)"},
	}
	w := xmltree.MustParse("<r><a/><b/></r>")
	cases := []struct {
		name string
		u1   ops.Update
		u2   ops.Update
		tr   *xmltree.Tree
	}{
		{"insert(a,x) vs insert(b,y)",
			ops.Insert{P: xpath.MustParse("r/a"), X: xmltree.MustParse("<x/>")},
			ops.Insert{P: xpath.MustParse("r/b"), X: xmltree.MustParse("<y/>")}, w},
		{"identical inserts",
			ops.Insert{P: xpath.MustParse("r/a"), X: xmltree.MustParse("<x/>")},
			ops.Insert{P: xpath.MustParse("r/a"), X: xmltree.MustParse("<x/>")}, w},
		{"insert(a,x) vs delete(a/x)",
			ops.Insert{P: xpath.MustParse("r/a"), X: xmltree.MustParse("<x/>")},
			ops.Delete{P: xpath.MustParse("r/a/x")}, xmltree.MustParse("<r><a/></r>")},
		{"delete(a) vs delete(b)",
			ops.Delete{P: xpath.MustParse("r/a")},
			ops.Delete{P: xpath.MustParse("r/b")}, w},
	}
	for _, c := range cases {
		diff, err := ops.CommuteWitness(c.u1, c.u2, c.tr)
		res := "error"
		if err == nil {
			res = fmt.Sprint(!diff)
		}
		decision := "error"
		if v, err := core.UpdateUpdateConflict(c.u1, c.u2, tracedOpts(core.SearchOptions{MaxNodes: 4})); err == nil {
			if v.Conflict {
				decision = "conflict [" + v.Method + "]"
			} else {
				decision = "commute [" + v.Method + "]"
				if !v.Complete {
					decision += " (unproven)"
				}
			}
		}
		t.Rows = append(t.Rows, []string{c.name, res, decision})
	}
	t.Notes = append(t.Notes,
		"paper (§6): identical inserts ought to commute under value semantics — and do;",
		"insert-then-delete of the inserted subtree does not commute")
	return t
}

// E13 — Section 6 "Schema Information": schema restrictions prune
// conflicts statically or shrink the witness universe; the paper leaves
// exact complexity open, and the engine reflects that by marking
// unprovable negatives incomplete.
func E13() Table {
	t := Table{
		ID:    "E13",
		Title: "Schema-aware conflict detection (§6, open problem)",
		Header: []string{
			"scenario", "schema-free", "under schema", "valid universe (≤7 nodes)",
		},
	}
	s := schema.MustParse(`
root inventory
inventory: book*
book: title quantity publisher?
quantity: low?
title:
publisher: name
name:
low:
restock:
`)
	const uniCap = 2_000_000
	free8 := core.CountTreesUpTo(9, 7, uniCap)
	freeCol := fmt.Sprint(free8)
	if free8 >= uniCap {
		freeCol = "> 2e6"
	}
	valid8 := s.CountValid(7, uniCap)
	scenarios := []struct {
		name string
		read string
		u    ops.Update
	}{
		{"//low vs insert <low/> at /inventory/quantity", "//low",
			ops.Insert{P: xpath.MustParse("/inventory/quantity"), X: xmltree.MustParse("<low/>")}},
		{"//book/low vs delete //book", "//book/low",
			ops.Delete{P: xpath.MustParse("//book")}},
		{"//book/quantity vs delete //book[.//low]", "//book/quantity",
			ops.Delete{P: xpath.MustParse("//book[.//low]")}},
	}
	for _, sc := range scenarios {
		read := ops.Read{P: xpath.MustParse(sc.read)}
		vFree, err1 := core.Detect(read, sc.u, ops.NodeSemantics, tracedOpts(core.SearchOptions{}))
		vSchema, err2 := schema.DetectUnderSchema(read, sc.u, ops.NodeSemantics, s,
			tracedOpts(core.SearchOptions{MaxNodes: 7, MaxCandidates: 100_000}))
		col := func(v core.Verdict, err error) string {
			if err != nil {
				return "error"
			}
			if v.Conflict {
				return "conflict [" + v.Method + "]"
			}
			out := "no conflict [" + v.Method + "]"
			if !v.Complete {
				out += " (incomplete)"
			}
			return out
		}
		t.Rows = append(t.Rows, []string{
			sc.name, col(vFree, err1), col(vSchema, err2),
			fmt.Sprintf("%d valid vs %s unrestricted", valid8, freeCol),
		})
	}
	t.Notes = append(t.Notes,
		"the schema statically kills two of the three schema-free conflicts and shrinks the",
		"witness universe by orders of magnitude for the one that survives")
	return t
}

// E14 — the REMARK's suggested optimization, end to end: one O(|R|·|U|)
// pass deciding all read edges simultaneously versus one automata product
// per edge.
func E14(seed int64, reps int) Table {
	t := Table{
		ID:     "E14",
		Title:  "Detector ablation: per-edge products vs single-pass DP (§4.1 REMARK)",
		Header: []string{"|pattern|", "per-edge detect", "single-pass detect", "agree"},
	}
	for _, size := range []int{8, 32, 128, 512} {
		rng := rand.New(rand.NewSource(seed + int64(size)))
		const pairs = 8
		type inst struct {
			r *pattern.Pattern
			d ops.Delete
		}
		var insts []inst
		for i := 0; i < pairs; i++ {
			r, up := generate.LinearPair(rng, size)
			if up.Output() == up.Root() {
				n := up.AddChild(up.Output(), pattern.Child, "a")
				up.SetOutput(n)
			}
			insts = append(insts, inst{r, ops.Delete{P: up}})
		}
		agree := true
		for _, in := range insts {
			ref, err1 := core.ReadDeleteLinear(in.r, in.d, ops.NodeSemantics)
			fast, err2 := core.ReadDeleteLinearFast(in.r, in.d, ops.NodeSemantics)
			if err1 != nil || err2 != nil || ref.Conflict != fast.Conflict {
				agree = false
			}
		}
		dRef := timeIt(max(1, reps), func() {
			for _, in := range insts {
				_, _ = core.ReadDeleteLinear(in.r, in.d, ops.NodeSemantics)
			}
		}) / pairs
		dFast := timeIt(max(1, reps), func() {
			for _, in := range insts {
				_, _ = core.ReadDeleteLinearFast(in.r, in.d, ops.NodeSemantics)
			}
		}) / pairs
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(size), dur(dRef), dur(dFast), fmt.Sprint(agree),
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: the single pass wins by roughly a factor of |R| on conflict-free",
		"instances (every edge must be refuted); on conflicts both stop at the first hit")
	return t
}

// E15 — evaluation cost tracks reach: one kernel serves every
// evaluation and visits only the tree nodes a pattern can reach. A rooted
// child-axis path (the shape of every store pattern) reaches the children
// of the nodes on its matches; a //-led pattern reaches every node.
func E15(seed int64, reps int) Table {
	t := Table{
		ID:     "E15",
		Title:  "Evaluation cost tracks reach: rooted path vs //-led pattern",
		Header: []string{"|t|", "pattern", "results", "mean eval time", "time/node of t"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, n := range []int{1000, 10_000, 100_000} {
		doc := generate.DocumentScale(rng, n)
		// A root-to-node label path four steps deep, and the //-led
		// pattern of its last two steps.
		labels := []string{doc.Root().Label()}
		for v := doc.Root(); len(labels) < 5 && len(v.Children()) > 0; {
			v = v.Children()[0]
			labels = append(labels, v.Label())
		}
		k := len(labels)
		for _, path := range []string{
			"/" + strings.Join(labels, "/"),
			"//" + strings.Join(labels[max(k-2, 1):], "/"),
		} {
			p := xpath.MustParse(path)
			r := max(1, reps)
			if n >= 100_000 {
				r = 1
			}
			results := len(match.Eval(p, doc))
			d := timeIt(r, func() { match.Eval(p, doc) })
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), path, fmt.Sprint(results), dur(d),
				fmt.Sprintf("%.1fns", float64(d.Nanoseconds())/float64(n)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: the rooted path's time stays roughly flat as |t| grows 100x (it reaches a bounded",
		"part of t); the //-led pattern reaches every node, so its time grows at least linearly with |t|")
	return t
}

// E16 — tree-pattern minimization (the paper's citation [2], Amer-Yahia
// et al.) as a preprocessing step: redundant predicate branches shrink
// the pattern, the Lemma 11 witness bound, and the search space, without
// changing any result.
func E16() Table {
	t := Table{
		ID:    "E16",
		Title: "Pattern minimization as detection preprocessing (citation [2])",
		Header: []string{
			"pattern", "minimized", "Lemma 11 bound", "complete search space",
		},
	}
	cases := []struct {
		read string
		del  string
	}{
		{"/a[b][b][b]/c", "/z/w"},
		{"/a[b/c][b][.//b]/d", "/z/w"},
		{"/a[*][b][.//b]/c", "/q/r"},
	}
	const cap = 2_000_000
	space := func(read ops.Read, d ops.Delete) string {
		bound := core.WitnessBound(read, d)
		n := core.CountTreesUpTo(len(core.SearchAlphabet(read, d)), bound, cap)
		if n >= cap {
			return fmt.Sprintf("> 2e6 trees (bound %d)", bound)
		}
		return fmt.Sprintf("%d trees (bound %d)", n, bound)
	}
	for _, c := range cases {
		r := xpath.MustParse(c.read)
		d := ops.Delete{P: xpath.MustParse(c.del)}
		min := containment.Minimize(r)
		boundBefore := core.WitnessBound(ops.Read{P: r}, d)
		boundAfter := core.WitnessBound(ops.Read{P: min}, d)
		t.Rows = append(t.Rows, []string{
			c.read, min.String(),
			fmt.Sprintf("%d → %d", boundBefore, boundAfter),
			space(ops.Read{P: r}, d) + " → " + space(ops.Read{P: min}, d),
		})
	}
	t.Notes = append(t.Notes,
		"minimization preserves [[p]](t) exactly (homomorphism-witnessed redundancy only),",
		"so verdicts are unchanged while the complete-search bound and space shrink;",
		"SearchConflict applies it automatically")
	return t
}

// E17 — incremental revalidation after updates (the authors' own cited
// EDBT'04 line of work, reference [14]): re-checking only the changed
// region beats full revalidation by a factor that grows with document
// size relative to the touched region.
func E17(seed int64, reps int) Table {
	t := Table{
		ID:     "E17",
		Title:  "Incremental revalidation after updates (citation [14])",
		Header: []string{"books", "touched points", "incremental", "full revalidation", "speedup"},
	}
	s := schema.MustParse(`
root inventory
inventory: book*
book: title quantity publisher? restock*
quantity: low?
title:
publisher: name
name:
low:
restock:
`)
	ins := ops.Insert{P: xpath.MustParse("//book[.//low]"), X: xmltree.MustParse("<restock/>")}
	for _, books := range []int{100, 1000, 10_000} {
		inv := generate.Inventory(rand.New(rand.NewSource(seed)), books, 0.1)
		after, err := ops.ApplyCopy(ins, inv)
		if err != nil {
			t.Notes = append(t.Notes, "ERROR: "+err.Error())
			continue
		}
		points := ops.Read{P: ins.P}.Eval(after)
		r := max(1, reps*3)
		dInc := timeIt(r, func() {
			if err := s.RevalidateInsert(after, ins, points); err != nil {
				panic(err)
			}
		})
		dFull := timeIt(r, func() {
			if err := s.Validate(after); err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(books), fmt.Sprint(len(points)), dur(dInc), dur(dFull),
			fmt.Sprintf("%.1fx", float64(dFull)/float64(dInc)),
		})
	}
	t.Notes = append(t.Notes,
		"agreement with full validation is property-tested (TestIncrementalMatchesFullRevalidation)")
	return t
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// E12 — Section 1: the dependence analysis enables the motivating
// reorderings.
func E12() Table {
	t := Table{
		ID:     "E12",
		Title:  "Program dependence analysis (§1)",
		Header: []string{"program", "dep(insert, read)", "hoistable", "redundant reads"},
	}
	run := func(name, src string) {
		prog := program.MustParse(src)
		a, err := program.Analyze(prog, program.Options{Sem: ops.NodeSemantics})
		if err != nil {
			t.Rows = append(t.Rows, []string{name, "error", "-", "-"})
			return
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprint(a.Dep[2][3]),
			fmt.Sprint(a.HoistableReads()),
			fmt.Sprint(a.RedundantReads()),
		})
	}
	run("§1 imperative (read //C after insert)", `
x = doc <x><B/><A/></x>
y = read $x//A
insert $x/B, <C/>
z = read $x//C
`)
	run("§1 variant (read //D after insert)", `
x = doc <x><B/><A/></x>
y = read $x//A
insert $x/B, <C/>
z = read $x//D
`)
	run("§1 functional (/*/A unaffected)", `
x = doc <x><B/><A/></x>
y = read $x/*/A
insert $x/B, <C/>
u = read $x/*/A
`)
	t.Notes = append(t.Notes,
		"paper: //C depends on the insert; //D and /*/A do not — the latter enable hoisting/CSE")
	return t
}
