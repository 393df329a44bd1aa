package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"xmlconflict/internal/core"
	"xmlconflict/internal/program"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// The same seed must replay identical per-client operation streams (and
// the inputs they refer to); another seed must not.
func TestSeedReplaysIdenticalStreams(t *testing.T) {
	a, b, c := genDetect(7, 20), genDetect(7, 20), genDetect(8, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("detect-mix: the same seed generated different inputs")
	}
	if reflect.DeepEqual(a.streams, c.streams) || reflect.DeepEqual(a.pairs, c.pairs) {
		t.Fatal("detect-mix: seeds 7 and 8 generated the same inputs")
	}
	for _, shape := range []docsShape{docsLarge, docsSmall} {
		shape.streamOps = 5000
		a, b, c := genDocs(7, shape), genDocs(7, shape), genDocs(8, shape)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: the same seed generated different inputs", shape.name)
		}
		if reflect.DeepEqual(a.streams, c.streams) || reflect.DeepEqual(a.xml, c.xml) {
			t.Fatalf("%s: seeds 7 and 8 generated the same inputs", shape.name)
		}
		if reflect.DeepEqual(a.streams[0], a.streams[1]) {
			t.Fatalf("%s: both clients got the same stream", shape.name)
		}
	}
}

// Every generated request must be one the program accepts, and each
// class must have the shape its name promises.
func TestDetectInputsAreWellFormed(t *testing.T) {
	in := genDetect(3, 5)
	if len(in.pairs) != populationSize {
		t.Fatalf("population %d, want %d", len(in.pairs), populationSize)
	}
	for i, p := range in.pairs {
		r, _, err := parsePair(p)
		if err != nil {
			t.Fatalf("pair %d %+v: %v", i, p, err)
		}
		if linear := r.P.IsLinear(); linear != (p.Class == classLinear) {
			t.Fatalf("pair %d %s: class %s but linear=%v", i, p.Read, classNames[p.Class], linear)
		}
	}
	for _, src := range in.programs {
		prog, err := program.Parse(src)
		if err != nil {
			t.Fatalf("program %q: %v", src, err)
		}
		if n := len(prog.Stmts); n < 6 || n > 10 {
			t.Fatalf("program has %d statements, want 6-10", n)
		}
	}
	for _, c := range in.streams {
		for k, shape := range blockShape {
			got := 0
			for _, op := range c[:askBlock+analyzePerBlock] {
				if op.program < 0 && in.pairs[op.pair].Class == k {
					got++
				}
			}
			if got != shape {
				t.Fatalf("first block holds %d %s asks, want %d", got, classNames[k], shape)
			}
		}
	}
}

// A capped pair's search must stop at the candidate cap, incomplete;
// a branching pair's search must complete within its witness space.
func TestPairClassesBehaveAsDesigned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs capped searches")
	}
	in := genDetect(5, 1)
	opts := core.SearchOptions{MaxNodes: detectMaxNodes, MaxCandidates: detectMaxCand}
	for _, idx := range in.byClass[classCapped][:2] {
		r, u, _ := parsePair(in.pairs[idx])
		v, err := core.Detect(r, u, 0, opts)
		if err != nil || v.Complete || v.Reason != core.ReasonCandidateCap || v.Candidates != detectMaxCand {
			t.Fatalf("capped pair %+v: %+v, %v", in.pairs[idx], v, err)
		}
	}
	for _, idx := range in.byClass[classBranching][:40] {
		r, u, _ := parsePair(in.pairs[idx])
		v, err := core.Detect(r, u, 0, opts)
		if err != nil || !v.Complete || v.Candidates > branchingSpace {
			t.Fatalf("branching pair %+v: %+v, %v", in.pairs[idx], v, err)
		}
	}
}

func TestDocsInputs(t *testing.T) {
	for _, shape := range []docsShape{docsLarge, docsSmall} {
		shape.streamOps = 2000
		in := genDocs(11, shape)
		for d, x := range in.xml {
			tree, err := xmltree.ParseString(x)
			if err != nil {
				t.Fatalf("%s doc %d: %v", shape.name, d, err)
			}
			if tree.Size() != in.nodes[d] {
				t.Fatalf("%s doc %d: %d nodes, counted %d", shape.name, d, tree.Size(), in.nodes[d])
			}
			for _, slot := range in.hot[d] {
				p := xpath.MustParse(slot)
				if got := len(p.Nodes()); got != 3 {
					t.Fatalf("hot slot %s has %d steps", slot, got)
				}
			}
		}
	}
}

// treesUpTo must agree with the program's own enumeration count.
func TestTreesUpTo(t *testing.T) {
	for L := 1; L <= 4; L++ {
		for n := 1; n <= 6; n++ {
			want := core.CountTreesUpTo(L, n, 1<<30)
			if got := treesUpTo(L, n, 1<<30); got != int64(want) {
				t.Fatalf("L=%d n=%d: %d, want %d", L, n, got, want)
			}
		}
	}
}

func TestQuantileUsInterpolatesWithinTheMicrosecond(t *testing.T) {
	if got := quantileUs([]int64{1, 2, 2, 2, 3}, 0.5); got <= 2 || got >= 3 {
		t.Fatalf("median of 1,2,2,2,3 µs: %v, want within (2,3)", got)
	}
	if got := quantileUs([]int64{5}, 0.99); got < 5 || got >= 6 {
		t.Fatalf("p99 of one 5 µs sample: %v", got)
	}
}

// A short run of each workload, untraced and traced, must answer every
// operation and pass its correctness gate.
func TestWorkloadsRunCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	work := t.TempDir()
	p := phase{seconds: 300 * time.Millisecond}
	small := docsSmall
	small.streamOps = 2000
	large := docsLarge
	large.streamOps = 200
	runs := map[string]func(traceDir string) (*outcome, error){
		"detect-mix": func(dir string) (*outcome, error) { return benchDetect(1, p, dir) },
		"docs-small": func(dir string) (*outcome, error) { return benchDocs(genDocs(1, small), work, p, dir) },
		"docs-large": func(dir string) (*outcome, error) { return benchDocs(genDocs(1, large), work, p, dir) },
	}
	for name, run := range runs {
		for _, traceDir := range []string{"", t.TempDir()} {
			out, err := run(traceDir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traceDir != "", err)
			}
			if len(out.problems) > 0 || out.failed > 0 || out.attempted == 0 {
				t.Fatalf("%s traced=%v: attempted %d, failed %d, problems %v, errors %v",
					name, traceDir != "", out.attempted, out.failed, out.problems, out.report["errors"])
			}
		}
	}
}

func TestQuantileIsSmoothAcrossModes(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		var out []time.Duration
		for _, x := range v {
			out = append(out, time.Duration(x)*time.Millisecond)
		}
		return out
	}
	// Two modes, 10 ms and 60 ms, one sample apart from an even split:
	// a plain median jumps 50 ms with that one sample; this one moves
	// a fraction of that.
	var a, b []time.Duration
	for i := 0; i < 50; i++ {
		a, b = append(a, ms(10)...), append(b, ms(10)...)
	}
	for i := 0; i < 50; i++ {
		a, b = append(a, ms(60)...), append(b, ms(60)...)
	}
	a, b = append(a, ms(10)...), append(b, ms(60)...)
	qa, qb := quantile(a, 0.5), quantile(b, 0.5)
	if d := (qb - qa) / float64(time.Millisecond); d <= 0 || d > 10 {
		t.Fatalf("medians %v and %v differ by %v ms", qa, qb, d)
	}
	if got := quantile(ms(1, 2, 3, 4, 5, 6, 7, 8, 9), 0.5) / float64(time.Millisecond); math.Abs(got-5) > 0.01 {
		t.Fatalf("median of 1..9 ms: %v", got)
	}
}
