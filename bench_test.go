// Benchmarks anchoring the experiments of EXPERIMENTS.md (see DESIGN.md
// for the experiment index). Each Benchmark corresponds to a table or
// series that cmd/xbench regenerates; run them with
//
//	go test -bench=. -benchmem
package xmlconflict_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
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
	"xmlconflict/internal/telemetry/span"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// BenchmarkE1Eval measures the embedding evaluator's O(|t|·|p|) scaling
// (Figure 2 / Section 2.3).
func BenchmarkE1Eval(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{100, 1000, 10_000} {
		doc := generate.DocumentScale(rng, n)
		for _, m := range []int{4, 16, 64} {
			p := pattern.Random(rand.New(rand.NewSource(int64(m))), pattern.RandomConfig{
				Size: m, Labels: []string{"a", "b", "c", "d"},
				PWildcard: 0.2, PDescendant: 0.3, PBranch: 0.4,
			})
			b.Run(fmt.Sprintf("t=%d/p=%d", n, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					match.Eval(p, doc)
				}
			})
		}
	}
}

// benchLinearDetect shares the E3/E4 harness.
func benchLinearDetect(b *testing.B, isInsert bool) {
	for _, size := range []int{4, 16, 64, 128} {
		rng := rand.New(rand.NewSource(int64(size)))
		const pairs = 16
		type inst struct {
			r ops.Read
			u ops.Update
		}
		var insts []inst
		for i := 0; i < pairs; i++ {
			r, up := generate.LinearPair(rng, size)
			if isInsert {
				x := xmltree.Random(rng, xmltree.RandomConfig{Size: 4, Labels: []string{"a", "b", "c"}})
				insts = append(insts, inst{ops.Read{P: r}, ops.Insert{P: up, X: x}})
			} else {
				if up.Output() == up.Root() {
					n := up.AddChild(up.Output(), pattern.Child, "a")
					up.SetOutput(n)
				}
				insts = append(insts, inst{ops.Read{P: r}, ops.Delete{P: up}})
			}
		}
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := insts[i%pairs]
				if _, err := core.Detect(in.r, in.u, ops.NodeSemantics, core.SearchOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3ReadDelete measures read-delete linear detection (Theorem 1).
func BenchmarkE3ReadDelete(b *testing.B) { benchLinearDetect(b, false) }

// BenchmarkE4ReadInsert measures read-insert linear detection (Theorem 2).
func BenchmarkE4ReadInsert(b *testing.B) { benchLinearDetect(b, true) }

// BenchmarkE5BranchingUpdate measures detection with branching update
// patterns against a linear read (Corollaries 1-2): cost tracks the spine,
// not the predicate count.
func BenchmarkE5BranchingUpdate(b *testing.B) {
	read := pattern.RandomLinear(rand.New(rand.NewSource(3)), 6, []string{"a", "b", "c"}, 0.25, 0.35)
	for _, branches := range []int{0, 4, 16} {
		up := pattern.RandomLinear(rand.New(rand.NewSource(4)), 4, []string{"a", "b", "c"}, 0.25, 0.35)
		spine := up.Spine()
		brng := rand.New(rand.NewSource(int64(branches)))
		for i := 0; i < branches; i++ {
			up.AddChild(spine[brng.Intn(len(spine))], pattern.Child, "a")
		}
		ins := ops.Insert{P: up, X: xmltree.MustParse("<a/>")}
		b.Run(fmt.Sprintf("branches=%d", branches), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ReadInsertLinear(read, ins, ops.NodeSemantics); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6Reparent measures witness minimization (Lemmas 9-11) on
// witnesses inflated to various sizes.
func BenchmarkE6Reparent(b *testing.B) {
	r := xpath.MustParse("//C")
	ins := ops.Insert{P: xpath.MustParse("/*/B"), X: xmltree.MustParse("<C/>")}
	read := ops.Read{P: r}
	v, err := core.ReadInsertLinear(r, ins, ops.NodeSemantics)
	if err != nil || !v.Conflict {
		b.Fatal("setup failed")
	}
	for _, pad := range []int{100, 1000, 10_000} {
		rng := rand.New(rand.NewSource(7))
		big := v.Witness.Clone()
		nodes := big.Nodes()
		for big.Size() < pad {
			n := nodes[rng.Intn(len(nodes))]
			c := big.AddChild(n, "pad")
			for j := 0; j < 30 && big.Size() < pad; j++ {
				c = big.AddChild(c, "pad")
			}
		}
		b.Run(fmt.Sprintf("pad=%d", pad), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ShrinkWitness(big, read, ins); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7HardnessReduction measures the polynomial path of Theorem 4:
// containment check + reduction + constructed witness + verification.
func BenchmarkE7HardnessReduction(b *testing.B) {
	for n := 1; n <= 3; n++ {
		p, q := generate.HardPair(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				contained, counter := containment.Contained(p, q)
				if contained {
					continue
				}
				r, ins := containment.ReduceToReadInsert(p, q)
				w := containment.ReductionWitnessInsert(p, q, counter)
				ok, err := ops.NodeConflictWitness(r, ins, w)
				if err != nil || !ok {
					b.Fatal("witness failed")
				}
			}
		})
	}
}

// BenchmarkE7HardnessSearch measures the exponential path: blind witness
// search on the reduced instances (capped so each iteration is bounded;
// the per-candidate cost and the exploding candidate counts are the
// point).
func BenchmarkE7HardnessSearch(b *testing.B) {
	for n := 1; n <= 2; n++ {
		p, q := generate.HardPair(n)
		r, ins := containment.ReduceToReadInsert(p, q)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SearchConflict(r, ins, ops.NodeSemantics, core.SearchOptions{
					MaxNodes: 8, MaxCandidates: 10_000,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8HardnessDelete is the Theorem 6 counterpart of E7.
func BenchmarkE8HardnessDelete(b *testing.B) {
	for n := 1; n <= 3; n++ {
		p, q := generate.HardPair(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				contained, counter := containment.Contained(p, q)
				if contained {
					continue
				}
				r, del := containment.ReduceToReadDelete(p, q)
				w := containment.ReductionWitnessDelete(p, q, counter)
				ok, err := ops.NodeConflictWitness(r, del, w)
				if err != nil || !ok {
					b.Fatal("witness failed")
				}
			}
		})
	}
}

// BenchmarkE10Matcher ablates the two weak-matching implementations
// (automata product vs direct DP; REMARK after Theorem 1).
func BenchmarkE10Matcher(b *testing.B) {
	for _, size := range []int{8, 64, 256} {
		rng := rand.New(rand.NewSource(int64(size)))
		l := pattern.RandomLinear(rng, size, []string{"a", "b", "c"}, 0.25, 0.35)
		lp := pattern.RandomLinear(rng, size, []string{"a", "b", "c"}, 0.25, 0.35)
		b.Run(fmt.Sprintf("NFA/size=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.MatchWeak(l, lp, "zf"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("DP/size=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.MatchWeakDP(l, lp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpsApply measures the raw operation costs of Section 3 on
// inventory documents (supporting the Lemma 1 PTIME claims).
func BenchmarkOpsApply(b *testing.B) {
	for _, books := range []int{100, 1000} {
		inv := generate.Inventory(rand.New(rand.NewSource(5)), books, 0.3)
		ins := ops.Insert{P: xpath.MustParse("//book[.//low]"), X: xmltree.MustParse("<restock/>")}
		del := ops.Delete{P: xpath.MustParse("//book[.//low]")}
		read := ops.Read{P: xpath.MustParse("//book/quantity")}
		b.Run(fmt.Sprintf("read/books=%d", books), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				read.Eval(inv)
			}
		})
		b.Run(fmt.Sprintf("insert/books=%d", books), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ops.ApplyCopy(ins, inv); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("delete/books=%d", books), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ops.ApplyCopy(del, inv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWitnessCheck measures the Lemma 1 witness checkers across the
// three semantics.
func BenchmarkWitnessCheck(b *testing.B) {
	inv := generate.Inventory(rand.New(rand.NewSource(6)), 200, 0.3)
	read := ops.Read{P: xpath.MustParse("//book/*")}
	ins := ops.Insert{P: xpath.MustParse("//book[.//low]"), X: xmltree.MustParse("<restock/>")}
	for _, sem := range []ops.Semantics{ops.NodeSemantics, ops.TreeSemantics, ops.ValueSemantics} {
		b.Run(sem.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ops.ConflictWitness(sem, read, ins, inv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE14SinglePass ablates the per-edge reference detector against
// the single-pass DP detector (REMARK after Theorem 1). The regimes
// differ: on a conflict both may stop early (and the single pass still
// pays its full O(|R|·|D|) table), while refuting a conflict forces the
// per-edge detector through one automata product per read edge — the
// regime the single pass is built for.
func BenchmarkE14SinglePass(b *testing.B) {
	for _, size := range []int{16, 128} {
		rng := rand.New(rand.NewSource(int64(size)))
		r, up := generate.LinearPair(rng, size)
		if up.Output() == up.Root() {
			n := up.AddChild(up.Output(), pattern.Child, "a")
			up.SetOutput(n)
		}
		// A conflict-free variant: the read goes through an alien label
		// first, so no deletion point can ever sit on its path.
		rFree := pattern.New("zalien")
		rFree.Attach(rFree.Root(), pattern.Child, r)
		rFree.SetOutput(rFree.Nodes()[rFree.Size()-1])
		for _, reg := range []struct {
			name string
			read *pattern.Pattern
		}{{"mixed", r}, {"conflict-free", rFree}} {
			d := ops.Delete{P: up}
			b.Run(fmt.Sprintf("per-edge/%s/size=%d", reg.name, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.ReadDeleteLinear(reg.read, d, ops.NodeSemantics); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("single-pass/%s/size=%d", reg.name, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.ReadDeleteLinearFast(reg.read, d, ops.NodeSemantics); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE15Evaluators measures how evaluation cost tracks reach: a
// rooted child-axis path against a //-led pattern as |t| grows.
func BenchmarkE15Evaluators(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1000, 10_000, 100_000} {
		doc := generate.DocumentScale(rng, n)
		labels := []string{doc.Root().Label()}
		for v := doc.Root(); len(labels) < 5 && len(v.Children()) > 0; {
			v = v.Children()[0]
			labels = append(labels, v.Label())
		}
		k := len(labels)
		for _, c := range []struct{ name, path string }{
			{"rooted", "/" + strings.Join(labels, "/")},
			{"descendant", "//" + strings.Join(labels[max(k-2, 1):], "/")},
		} {
			p := xpath.MustParse(c.path)
			b.Run(fmt.Sprintf("t=%d/%s", n, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					match.Eval(p, doc)
				}
			})
		}
	}
}

// BenchmarkE13Schema measures the schema substrate: validation, valid-tree
// enumeration, and schema-aware detection with static pruning.
func BenchmarkE13Schema(b *testing.B) {
	s := schema.MustParse(`
root inventory
inventory: book*
book: title quantity publisher?
quantity: low?
title:
publisher: name
name:
low:
`)
	inv := generate.Inventory(rand.New(rand.NewSource(4)), 500, 0.3)
	b.Run("validate/books=500", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := s.Validate(inv); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enumerate-valid/max=9", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			s.EnumerateValid(9, func(*xmltree.Tree) bool { n++; return true })
		}
	})
	read := ops.Read{P: xpath.MustParse("//book/low")}
	d := ops.Delete{P: xpath.MustParse("//book")}
	b.Run("detect-static-prune", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := schema.DetectUnderSchema(read, d, ops.NodeSemantics, s, core.SearchOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUpdateUpdate measures the Section 6 update/update decision
// procedure on its static fast paths and a search-decided pair.
func BenchmarkUpdateUpdate(b *testing.B) {
	ident1 := ops.Insert{P: xpath.MustParse("/a/b"), X: xmltree.MustParse("<x><y/></x>")}
	ident2 := ops.Insert{P: xpath.MustParse("/a/b"), X: xmltree.MustParse("<x><y/></x>")}
	b.Run("identical-static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.UpdateUpdateConflict(ident1, ident2, core.SearchOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	ins := ops.Insert{P: xpath.MustParse("/r/a"), X: xmltree.MustParse("<x/>")}
	del := ops.Delete{P: xpath.MustParse("/r/a/x")}
	b.Run("conflicting-search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.UpdateUpdateConflict(ins, del, core.SearchOptions{MaxNodes: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRevalidation compares incremental revalidation after an update
// (the cited EDBT'04 substrate) against full document revalidation.
func BenchmarkRevalidation(b *testing.B) {
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
	for _, books := range []int{200, 2000} {
		inv := generate.Inventory(rand.New(rand.NewSource(9)), books, 0.3)
		ins := ops.Insert{P: xpath.MustParse("//book[.//low]"), X: xmltree.MustParse("<restock/>")}
		// The comparison isolates the revalidation step itself: the update
		// is applied once, outside the timed loops (in practice the input
		// is already known valid — that is the incremental premise).
		after, err := ops.ApplyCopy(ins, inv)
		if err != nil {
			b.Fatal(err)
		}
		points := ops.Read{P: ins.P}.Eval(after) // points carry over by ID
		b.Run(fmt.Sprintf("incremental/books=%d", books), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := s.RevalidateInsert(after, ins, points); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("full/books=%d", books), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := s.Validate(after); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE18TelemetryOverhead is the testing.B anchor for experiment
// E18: the time and allocations the observability layer costs the
// bounded-search and linear decision procedures, with telemetry channels
// detached ("off", one nil check per site), with a stats registry
// attached, and with stats, a fresh span trace per call, and throttled
// progress attached.
func BenchmarkE18TelemetryOverhead(b *testing.B) {
	searchRead := ops.Read{P: xpath.MustParse("a[b][c]/d")}
	searchDel := ops.Delete{P: xpath.MustParse("z/w")}
	rng := rand.New(rand.NewSource(1))
	linRead, linUpd := generate.LinearPair(rng, 24)
	if linUpd.Output() == linUpd.Root() {
		n := linUpd.AddChild(linUpd.Output(), pattern.Child, "a")
		linUpd.SetOutput(n)
	}
	stats := telemetry.New()
	progress := telemetry.NewProgress(func(telemetry.Update) {}, time.Hour)
	modes := []struct {
		name string
		with func(core.SearchOptions) core.SearchOptions
	}{
		{"off", func(o core.SearchOptions) core.SearchOptions { return o }},
		{"stats", func(o core.SearchOptions) core.SearchOptions {
			return o.WithStats(stats)
		}},
		{"stats+span+progress", func(o core.SearchOptions) core.SearchOptions {
			return o.WithStats(stats).WithProgress(progress).
				WithContext(span.Context(context.Background(), span.New("E18").Root()))
		}},
	}
	for _, m := range modes {
		sopts := core.SearchOptions{MaxNodes: 6, MaxCandidates: 10_000}
		b.Run("search/"+m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Detect(searchRead, searchDel, ops.NodeSemantics, m.with(sopts)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("linear/"+m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Detect(ops.Read{P: linRead}, ops.Delete{P: linUpd}, ops.NodeSemantics, m.with(core.SearchOptions{})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSearch compares the sequential and worker-pool witness
// searches on a branching-read refutation workload. The speedup tracks
// GOMAXPROCS (per-candidate checks dominate and parallelize); on a
// single-core machine the two are necessarily equal.
func BenchmarkParallelSearch(b *testing.B) {
	r := ops.Read{P: xpath.MustParse("a[b][c]/d")}
	d := ops.Delete{P: xpath.MustParse("z/w")}
	opts := core.SearchOptions{MaxNodes: 5, MaxCandidates: 100_000}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SearchConflict(r, d, ops.NodeSemantics, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SearchConflictParallel(r, d, ops.NodeSemantics, opts, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE19BatchAnalysis is the testing.B anchor for experiment E19:
// the pairwise dependence analysis of a 36-statement program with
// repeated patterns, sequentially, and fanned out over a worker pool
// sharing a warm verdict cache. Verdicts are identical in every mode;
// only the time changes.
func BenchmarkE19BatchAnalysis(b *testing.B) {
	var src strings.Builder
	src.WriteString("x = doc <r><a><q/><b/></a></r>\ny = doc <r><a/></r>\n")
	reads := []string{"/a[q]/b", "/a[c][d]/b", "//b", "/a[q]/q", "/a[b][q]/c"}
	upds := []string{"insert $x/a, <b/>", "delete $x/a/b", "insert $x/a, <q/>", "delete $x//q"}
	for i := 0; i < 17; i++ {
		fmt.Fprintf(&src, "r%d = read $x%s\n%s\n", i, reads[i%len(reads)], upds[i%len(upds)])
	}
	prog := program.MustParse(src.String())
	opts := core.SearchOptions{MaxNodes: 5, MaxCandidates: 20_000}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := program.Analyze(prog, program.Options{Search: opts}); err != nil {
				b.Fatal(err)
			}
		}
	})
	cache := core.NewDetectorCache(0)
	b.Run("parallel-warm-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			popt := program.Options{Search: opts, Workers: runtime.GOMAXPROCS(0), Cache: cache}
			if _, err := program.Analyze(prog, popt); err != nil {
				b.Fatal(err)
			}
		}
	})
}
