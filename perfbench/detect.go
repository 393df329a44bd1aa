package main

// detect-mix: two clients asking /v1/detect pairs (parse the request's
// XPath/XML strings, then DetectorCache.Detect) and, for ~5% of their
// operations, /v1/analyze programs (program.Parse, then program.Analyze
// through the same cache), exactly as xserve's handlers call them after
// JSON decoding, with xserve's defaults: a process-lifetime cache of
// the default capacity, max_nodes 8 and max_candidates 100 000 for
// detect, the analyzer's own bounds and GOMAXPROCS workers for analyze.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"xmlconflict/internal/core"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/program"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/telemetry/span"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// detectStreamBlocks sizes each client's stream: 300 blocks of 42
// operations outlast a 60-second phase at the rates the capped searches
// allow; a faster program replays its stream from the start.
const detectStreamBlocks = 300

// parsePair is xserve's request parsing for the plain detect form.
func parsePair(p pair) (ops.Read, ops.Update, error) {
	rp, err := xpath.Parse(p.Read)
	if err != nil {
		return ops.Read{}, nil, fmt.Errorf("read: %w", err)
	}
	if p.Insert != "" {
		ip, err := xpath.Parse(p.Insert)
		if err != nil {
			return ops.Read{}, nil, fmt.Errorf("insert: %w", err)
		}
		xs := p.X
		if xs == "" {
			xs = "<new/>"
		}
		x, err := xmltree.ParseString(xs)
		if err != nil {
			return ops.Read{}, nil, fmt.Errorf("x: %w", err)
		}
		return ops.Read{P: rp}, ops.Insert{P: ip, X: x}, nil
	}
	dp, err := xpath.Parse(p.Delete)
	if err != nil {
		return ops.Read{}, nil, fmt.Errorf("delete: %w", err)
	}
	return ops.Read{P: rp}, ops.Delete{P: dp}, nil
}

func detectOpts(m *telemetry.Metrics, ctx context.Context) core.SearchOptions {
	return core.SearchOptions{MaxNodes: detectMaxNodes, MaxCandidates: detectMaxCand}.WithStats(m).WithContext(ctx)
}

// detectServer is the program state xserve holds for detection: one
// registry and one verdict cache for the process lifetime.
type detectServer struct {
	m     *telemetry.Metrics
	cache *core.DetectorCache
}

// setupDetect builds the server state and warms it the way a
// long-running daemon's cache is warm: every pooled program analyzed
// once, then the most popular branching pairs, then the most popular
// linear pairs until the cache is full. It returns the pairs it asked.
func setupDetect(in *detectInputs) (*detectServer, map[int32]bool, error) {
	s := &detectServer{m: telemetry.New(), cache: core.NewDetectorCache(0)}
	s.cache.Instrument(s.m)
	ctx := context.Background()
	for i := range in.programs {
		if _, err := s.analyze(ctx, in.programs[i]); err != nil {
			return nil, nil, fmt.Errorf("warm program %d: %w", i, err)
		}
	}
	warm := map[int32]bool{}
	ask := func(idx int) error {
		r, u, err := parsePair(in.pairs[idx])
		if err == nil {
			_, err = s.cache.Detect(r, u, ops.NodeSemantics, detectOpts(s.m, ctx))
		}
		if err != nil {
			return fmt.Errorf("warm %q: %w", in.pairs[idx].Read, err)
		}
		warm[int32(idx)] = true
		return nil
	}
	for _, idx := range in.byClass[classBranching][:warmBranching] {
		if err := ask(idx); err != nil {
			return nil, nil, err
		}
	}
	for _, idx := range in.byClass[classLinear] {
		if s.cache.Len() >= s.cache.Cap() {
			break
		}
		if err := ask(idx); err != nil {
			return nil, nil, err
		}
	}
	return s, warm, nil
}

// analyze is xserve's /v1/analyze: parse, then analyze through the
// shared cache with GOMAXPROCS workers and the analyzer's own bounds.
func (s *detectServer) analyze(ctx context.Context, src string) (*program.Analysis, error) {
	prog, err := program.Parse(src)
	if err != nil {
		return nil, err
	}
	return s.analyzeParsed(ctx, prog)
}

func (s *detectServer) analyzeParsed(ctx context.Context, prog *program.Program) (*program.Analysis, error) {
	return program.Analyze(prog, program.Options{
		Sem:     ops.NodeSemantics,
		Search:  core.SearchOptions{}.WithStats(s.m).WithContext(ctx),
		Workers: runtime.GOMAXPROCS(0),
		Cache:   s.cache,
	})
}

// seenVerdict is one distinct verdict a client received for a pair.
type seenVerdict struct {
	pair int32
	v    core.Verdict
}

// tracedAsk is one traced pair ask: the benchmark's own timings of its two
// spans, the verdict, and the trace holding the program's spans.
type tracedAsk struct {
	pair          int32
	parse, detect time.Duration
	candidates    int
	tr            *span.Trace
}

type tracedAnalyze struct {
	dur   time.Duration
	pairs int
	tr    *span.Trace
}

// detectClient is one client's record of a phase.
type detectClient struct {
	tally
	askLat, conflictLat, analyzeLat []time.Duration
	incomplete                      int64
	verdicts                        []seenVerdict
	last                            map[int32]seenVerdict
	analyses                        map[int32]*program.Analysis
	asks                            []tracedAsk
	analyzes                        []tracedAnalyze
}

// detectPhase is one timed phase of detect-mix against one server.
type detectPhase struct {
	in      *detectInputs
	s       *detectServer
	warm    map[int32]bool // pairs the set-up computed
	p       phase
	clients [clients]*detectClient
	run     phaseRun
	hits    int64 // cache hits and misses during the phase
	misses  int64
}

func runDetectPhase(in *detectInputs, s *detectServer, warm map[int32]bool, p phase) *detectPhase {
	ph := &detectPhase{in: in, s: s, warm: warm, p: p}
	for c := range ph.clients {
		ph.clients[c] = &detectClient{last: map[int32]seenVerdict{}, analyses: map[int32]*program.Analysis{}}
	}
	h0, m0 := s.cache.Counts()
	ph.run = runClients(p, func(c, i int) {
		stream := in.streams[c]
		op := stream[i%len(stream)]
		if op.program >= 0 {
			ph.analyze(ph.clients[c], op.program)
		} else {
			ph.ask(ph.clients[c], op.pair)
		}
	})
	h1, m1 := s.cache.Counts()
	ph.hits, ph.misses = h1-h0, m1-m0
	for _, cl := range ph.clients {
		ph.run.addTallies(&cl.tally)
	}
	return ph
}

func (ph *detectPhase) ask(cl *detectClient, idx int32) {
	cl.attempted++
	ctx := context.Background()
	var tr *span.Trace
	var psp, dsp *span.Span
	if ph.p.traced {
		tr = span.New("detect")
		psp = tr.Root().Child("xpath.parse")
	}
	t0 := time.Now()
	r, u, err := parsePair(ph.in.pairs[idx])
	t1 := time.Now()
	if err != nil {
		cl.fail(err)
		return
	}
	if tr != nil {
		psp.End()
		dsp = tr.Root().Child("core.detect")
		ctx = span.Context(ctx, dsp)
	}
	t2 := time.Now()
	v, err := ph.s.cache.Detect(r, u, ops.NodeSemantics, detectOpts(ph.s.m, ctx))
	t3 := time.Now()
	if tr != nil {
		dsp.End()
		tr.Finish()
	}
	if err != nil {
		cl.fail(err)
		return
	}
	lat := t1.Sub(t0) + t3.Sub(t2)
	cl.askLat = append(cl.askLat, lat)
	if v.Conflict {
		cl.conflictLat = append(cl.conflictLat, lat)
	}
	if !v.Complete {
		cl.incomplete++
	}
	if prev, ok := cl.last[idx]; !ok || !sameVerdict(prev.v, v) || prev.v.Witness != v.Witness {
		sv := seenVerdict{pair: idx, v: v}
		cl.verdicts = append(cl.verdicts, sv)
		cl.last[idx] = sv
	}
	if tr != nil {
		cl.asks = append(cl.asks, tracedAsk{pair: idx, parse: t1.Sub(t0), detect: t3.Sub(t2), candidates: v.Candidates, tr: tr})
	}
}

func (ph *detectPhase) analyze(cl *detectClient, idx int32) {
	cl.attempted++
	ctx := context.Background()
	var tr *span.Trace
	var asp *span.Span
	if ph.p.traced {
		tr = span.New("analyze")
	}
	t0 := time.Now()
	prog, err := program.Parse(ph.in.programs[idx])
	if err != nil {
		cl.fail(err)
		return
	}
	if tr != nil {
		asp = tr.Root().Child("program.analyze")
		ctx = span.Context(ctx, asp)
	}
	t1 := time.Now()
	a, err := ph.s.analyzeParsed(ctx, prog)
	t2 := time.Now()
	if tr != nil {
		asp.End()
		tr.Finish()
	}
	if err != nil {
		cl.fail(err)
		return
	}
	cl.analyzeLat = append(cl.analyzeLat, t2.Sub(t0))
	cl.analyses[idx] = a
	if tr != nil {
		n := len(a.Dep)
		cl.analyzes = append(cl.analyzes, tracedAnalyze{dur: t2.Sub(t1), pairs: n * (n - 1) / 2, tr: tr})
	}
}

func sameVerdict(a, b core.Verdict) bool {
	return a.Conflict == b.Conflict && a.Complete == b.Complete && a.Reason == b.Reason &&
		a.Method == b.Method && a.Candidates == b.Candidates
}

func witnessXML(v core.Verdict) string {
	if v.Witness == nil {
		return ""
	}
	return v.Witness.XML()
}

// check is the correctness gate of a detect-mix phase: every conflict
// verdict's witness passes the Lemma 1 check again, every pair got one
// verdict throughout, a seeded sample of the asked pairs (one capped
// pair among them, when any was asked) gets the same verdict from an
// uncached core.Detect, and a seeded asked program gets the same
// analysis without the cache.
func (ph *detectPhase) check(seed int64) []string {
	var problems []string
	first := map[int32]core.Verdict{}
	for _, cl := range ph.clients {
		for _, sv := range cl.verdicts {
			p := ph.in.pairs[sv.pair]
			if sv.v.Conflict {
				r, u, err := parsePair(p)
				ok := false
				if err == nil && sv.v.Witness != nil {
					ok, err = ops.ConflictWitness(ops.NodeSemantics, r, u, sv.v.Witness)
				}
				if !ok || err != nil {
					problems = append(problems, fmt.Sprintf("witness of %s / %s%s fails the Lemma 1 check (%v)", p.Read, p.Insert, p.Delete, err))
				}
			}
			if f, ok := first[sv.pair]; !ok {
				first[sv.pair] = sv.v
			} else if !sameVerdict(f, sv.v) || witnessXML(f) != witnessXML(sv.v) {
				problems = append(problems, fmt.Sprintf("pair %s / %s%s got two different verdicts", p.Read, p.Insert, p.Delete))
			}
		}
	}
	asked := make([]int32, 0, len(first))
	for idx := range first {
		asked = append(asked, idx)
	}
	sort.Slice(asked, func(i, j int) bool { return asked[i] < asked[j] })
	rng := newRNG(seed, "detect-mix", "check", 0)
	rng.Shuffle(len(asked), func(i, j int) { asked[i], asked[j] = asked[j], asked[i] })
	n := min(24, len(asked))
	sample := asked[:n]
	for _, idx := range asked[n:] {
		if ph.in.pairs[idx].Class == classCapped && !hasCapped(ph.in, sample) {
			sample = append(sample, idx)
		}
	}
	for _, idx := range sample {
		p := ph.in.pairs[idx]
		r, u, err := parsePair(p)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		v, err := core.Detect(r, u, ops.NodeSemantics, core.SearchOptions{MaxNodes: detectMaxNodes, MaxCandidates: detectMaxCand})
		if err != nil || !sameVerdict(v, first[idx]) || witnessXML(v) != witnessXML(first[idx]) {
			problems = append(problems, fmt.Sprintf("pair %s / %s%s: cached verdict differs from an uncached core.Detect (%v)", p.Read, p.Insert, p.Delete, err))
		}
	}
	var progs []int32
	for _, cl := range ph.clients {
		for idx := range cl.analyses {
			progs = append(progs, idx)
		}
	}
	if len(progs) > 0 {
		sort.Slice(progs, func(i, j int) bool { return progs[i] < progs[j] })
		idx := progs[rng.Intn(len(progs))]
		var got *program.Analysis
		for _, cl := range ph.clients {
			if a, ok := cl.analyses[idx]; ok {
				got = a
			}
		}
		prog, err := program.Parse(ph.in.programs[idx])
		var want *program.Analysis
		if err == nil {
			want, err = program.Analyze(prog, program.Options{Sem: ops.NodeSemantics})
		}
		if err != nil || want.Report() != got.Report() {
			problems = append(problems, fmt.Sprintf("program %d: cached analysis differs from an uncached one (%v)", idx, err))
		}
	}
	return problems
}

// layers reduces a traced phase to the per-layer metrics of the
// detector side.
func (ph *detectPhase) layers() (map[string]float64, []*span.Trace) {
	type askRec struct {
		tracedAsk
		disposition string
	}
	var asks []askRec
	var traces []*span.Trace
	var searchUs []int64
	var analyze []time.Duration
	var pairs []float64
	var incomplete int64
	for _, cl := range ph.clients {
		for _, a := range cl.asks {
			rec := askRec{tracedAsk: a}
			for _, s := range flatten(a.tr.View()) {
				switch s.name {
				case "detect.cached":
					if rec.disposition == "" {
						rec.disposition, _ = s.attrs["disposition"].(string)
					}
				case "search":
					searchUs = append(searchUs, s.selfUs)
				}
			}
			asks = append(asks, rec)
			traces = append(traces, a.tr)
		}
		for _, a := range cl.analyzes {
			for _, s := range flatten(a.tr.View()) {
				if s.name == "search" {
					searchUs = append(searchUs, s.selfUs)
				}
			}
			traces = append(traces, a.tr)
			analyze = append(analyze, a.dur)
			pairs = append(pairs, float64(a.pairs))
		}
		incomplete += cl.incomplete
	}
	sort.Slice(asks, func(i, j int) bool { return asks[i].tr.Start().Before(asks[j].tr.Start()) })
	computed := map[int32]bool{}
	for idx := range ph.warm {
		computed[idx] = true
	}
	var parse, hit, miss, wait []time.Duration
	var recomputes int64
	var cands []float64
	for _, a := range asks {
		parse = append(parse, a.parse)
		switch a.disposition {
		case "hit":
			hit = append(hit, a.detect)
		case "leader-wait":
			wait = append(wait, a.detect)
		case "miss":
			miss = append(miss, a.detect)
			cands = append(cands, float64(a.candidates))
			if computed[a.pair] {
				recomputes++
			}
			computed[a.pair] = true
		}
	}
	return map[string]float64{
		"xpath.parse_p50_us":        quantile(parse, 0.5) / us,
		"core.hit_p50_us":           quantile(hit, 0.5) / us,
		"core.miss_p50_ms":          quantile(miss, 0.5) / ms,
		"core.miss_p99_ms":          quantile(miss, 0.99) / ms,
		"core.leader_wait_p50_ms":   quantile(wait, 0.5) / ms,
		"core.cache_hit_ratio":      ratio(ph.hits, ph.hits+ph.misses),
		"core.incomplete_ratio":     ratio(incomplete, int64(len(asks))),
		"core.recompute_ratio":      ratio(recomputes, int64(len(miss))),
		"core.candidates_per_miss":  mean(cands),
		"core.search_p50_ms":        quantileUs(searchUs, 0.5) / 1000,
		"core.search_p99_ms":        quantileUs(searchUs, 0.99) / 1000,
		"program.analyze_p50_ms":    quantile(analyze, 0.5) / ms,
		"program.pairs_per_analyze": mean(pairs),
	}, traces
}

func hasCapped(in *detectInputs, idxs []int32) bool {
	for _, idx := range idxs {
		if in.pairs[idx].Class == classCapped {
			return true
		}
	}
	return false
}
