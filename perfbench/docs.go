package main

// docs-large and docs-small: two clients driving the sharded document
// store through shard.Router exactly as xserve's /v1/docs handlers do
// after JSON decoding, in xserve's default store configuration but for
// fsync (see storeOptions): one shard, a snapshot every 1 024 records,
// the default 32-update admission window, one metrics registry. Each
// client takes the base LSN of a stale-base operation from the
// acknowledgments it has seen for that document.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"xmlconflict/internal/ops"
	"xmlconflict/internal/shard"
	"xmlconflict/internal/store"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/telemetry/span"
)

// storeOptions is xserve's default -store-* configuration, with the
// store's default 32-update admission window spelled out, except that
// the WAL is not fsynced. Under xserve's "always" every commit fsyncs
// while it holds the store mutex the other client waits on, so each
// operation waits on the host's disk, which other tenants share. Its
// drift from one run to the next spread docs-small's update p50 by 12 %
// between quartiles (ten runs) and docs-large's p90 by 24 % (four);
// without fsync, ten runs in a steady period of the host spread each by
// 7 %. README.md has the figures.
func storeOptions(m *telemetry.Metrics) shard.Options {
	return shard.Options{
		Shards: 1,
		Store: store.Options{
			Fsync:         store.FsyncNever,
			SnapshotEvery: 1024,
			HistoryWindow: 32,
			Metrics:       m,
		},
	}
}

// ack is one acknowledged commit on a document.
type ack struct {
	lsn    uint64
	digest string
	drop   bool
}

// docLog is the acknowledgments seen for one document, in LSN order:
// where clients take stale bases from, and what recovery must reproduce.
type docLog struct {
	mu   sync.Mutex
	acks []ack
}

func (l *docLog) add(a ack) {
	l.mu.Lock()
	i := sort.Search(len(l.acks), func(i int) bool { return l.acks[i].lsn > a.lsn })
	l.acks = append(l.acks, ack{})
	copy(l.acks[i+1:], l.acks[i:])
	l.acks[i] = a
	l.mu.Unlock()
}

// base returns the LSN the document had lag acknowledged commits ago,
// or its oldest acknowledged LSN when it has fewer.
func (l *docLog) base(lag int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acks[max(len(l.acks)-1-lag, 0)].lsn
}

// docsServer is the program state xserve holds for /v1/docs.
type docsServer struct {
	dir string
	m   *telemetry.Metrics
	rt  *shard.Router
}

// setupDocs opens a router on a fresh directory and creates the shared
// documents, recording their creation acknowledgments. With traces
// non-nil every create runs traced.
func setupDocs(in *docsInputs, dir string, logs map[string]*docLog, traces *[]docTrace) (*docsServer, error) {
	s := &docsServer{dir: dir, m: telemetry.New()}
	rt, err := shard.Open(dir, storeOptions(s.m))
	if err != nil {
		return nil, err
	}
	s.rt = rt
	for d, name := range in.names {
		ctx, tr, dsp := startDocTrace(traces != nil, opCreate)
		t0 := time.Now()
		res, err := rt.CreateCtx(ctx, name, in.xml[d])
		dur := time.Since(t0)
		endDocTrace(tr, dsp)
		if err != nil {
			rt.Close()
			return nil, fmt.Errorf("create %s: %w", name, err)
		}
		logs[name].add(ack{lsn: res.LSN, digest: res.Digest})
		if traces != nil {
			*traces = append(*traces, docTrace{kind: opCreate, dur: dur, tr: tr})
		}
	}
	return s, nil
}

func newDocLogs(in *docsInputs) map[string]*docLog {
	logs := map[string]*docLog{}
	for _, n := range in.names {
		logs[n] = &docLog{}
	}
	for _, names := range in.life {
		for _, n := range names {
			logs[n] = &docLog{}
		}
	}
	return logs
}

// callNames names the benchmark's span around each operation kind's
// router call.
var callNames = [numOpKinds]string{"router.submit", "router.submit", "router.submit", "router.get", "router.create", "router.submit", "router.drop"}

// startDocTrace opens a trace for one document operation and the
// driver's span around its router call; untraced, it returns a plain
// context and nil spans.
func startDocTrace(traced bool, kind uint8) (context.Context, *span.Trace, *span.Span) {
	if !traced {
		return context.Background(), nil, nil
	}
	tr := span.New("docs." + opKindNames[kind])
	dsp := tr.Root().Child(callNames[kind])
	return span.Context(context.Background(), dsp), tr, dsp
}

func endDocTrace(tr *span.Trace, dsp *span.Span) {
	if tr != nil {
		dsp.End()
		tr.Finish()
	}
}

// docTrace is one traced document operation.
type docTrace struct {
	kind  uint8
	stale bool
	dur   time.Duration // the benchmark's span around the router call
	tr    *span.Trace
}

// staleOp is one stale-base operation's outcome: upper is the highest
// window entry its admission checked (the read's LSN, the update's own
// commit LSN exclusive, or the conflicting commit), 0 when refused for
// a base older than the window.
type staleOp struct {
	doc      string
	base     uint64
	upper    uint64
	admitted bool
}

// conflictSeen is one ConflictError, kept for the correctness gate.
type conflictSeen struct {
	doc           string
	base, withLSN uint64
}

// docsClient is one client's record of a phase.
type docsClient struct {
	tally
	updateLat, readLat, conflictLat []time.Duration
	stale                           []staleOp
	conflicts                       []conflictSeen
	traces                          []docTrace
}

// docsPhase is one timed phase of a docs workload.
type docsPhase struct {
	in        *docsInputs
	s         *docsServer
	p         phase
	logs      map[string]*docLog
	clients   [clients]*docsClient
	run       phaseRun
	snapshots int64
}

func runDocsPhase(in *docsInputs, s *docsServer, logs map[string]*docLog, p phase) *docsPhase {
	ph := &docsPhase{in: in, s: s, p: p, logs: logs}
	for c := range ph.clients {
		ph.clients[c] = &docsClient{}
	}
	snap0 := s.m.Counter("store.snapshots").Load()
	ph.run = runClients(p, func(c, i int) {
		stream := in.streams[c]
		ph.do(c, stream[i%len(stream)])
	})
	ph.snapshots = s.m.Counter("store.snapshots").Load() - snap0
	for _, cl := range ph.clients {
		ph.run.addTallies(&cl.tally)
	}
	return ph
}

func (ph *docsPhase) do(c int, op docOp) {
	cl := ph.clients[c]
	cl.attempted++
	in := ph.in
	var name string
	var base uint64
	stale := false
	sop := store.Op{Sem: ops.NodeSemantics} // xserve's default semantics
	switch op.kind {
	case opInsert, opDelete, opRead:
		name = in.names[op.doc]
		if op.lag > 0 {
			base, stale = ph.logs[name].base(int(op.lag)), true
		}
		slot, entries := in.hot[op.doc][op.slot], in.entries[op.doc][op.slot]
		sop.BaseLSN = base
		switch {
		case op.kind == opInsert:
			sop.Kind, sop.Pattern, sop.X = "insert", slot, newEntry
		case op.kind == opDelete:
			sop.Kind, sop.Pattern = "delete", entries
		case op.lag > 0:
			sop.Kind, sop.Pattern = "read", entries
		default:
			sop.Kind, sop.Pattern = "read", slot
		}
	case opGet:
		name = in.names[op.doc]
	case opCreate, opLifeInsert, opDrop:
		name = in.life[c][op.doc]
		sop.Kind, sop.Pattern, sop.X = "insert", "/log/s0/b0", newEntry
	}
	ctx, tr, dsp := startDocTrace(ph.p.traced, op.kind)
	var res store.Result
	var err error
	t0 := time.Now()
	switch op.kind {
	case opGet:
		_, err = ph.s.rt.Get(name)
	case opCreate:
		res, err = ph.s.rt.CreateCtx(ctx, name, in.xml[0])
	case opDrop:
		res, err = ph.s.rt.DropCtx(ctx, name)
	default:
		res, err = ph.s.rt.SubmitCtx(ctx, name, sop)
	}
	lat := time.Since(t0)
	endDocTrace(tr, dsp)
	if tr != nil {
		cl.traces = append(cl.traces, docTrace{kind: op.kind, stale: stale, dur: lat, tr: tr})
	}

	update := op.kind != opRead && op.kind != opGet
	var ce *store.ConflictError
	switch {
	case err == nil:
		if update {
			cl.updateLat = append(cl.updateLat, lat)
			ph.logs[name].add(ack{lsn: res.LSN, digest: res.Digest, drop: op.kind == opDrop})
		} else {
			cl.readLat = append(cl.readLat, lat)
		}
		if stale {
			upper := res.LSN
			if update {
				upper-- // its own commit is not a window entry it was checked against
			}
			cl.stale = append(cl.stale, staleOp{doc: name, base: base, upper: upper, admitted: true})
		}
	case errors.As(err, &ce):
		cl.conflictLat = append(cl.conflictLat, lat)
		cl.conflicts = append(cl.conflicts, conflictSeen{doc: name, base: ce.BaseLSN, withLSN: ce.WithLSN})
		cl.stale = append(cl.stale, staleOp{doc: name, base: base, upper: ce.WithLSN})
	case errors.Is(err, store.ErrStaleBase):
		cl.conflictLat = append(cl.conflictLat, lat)
		cl.stale = append(cl.stale, staleOp{doc: name, base: base})
	default:
		cl.fail(fmt.Errorf("%s %s: %w", opKindNames[op.kind], name, err))
	}
}

func (ph *docsPhase) staleOps() []staleOp {
	var all []staleOp
	for _, cl := range ph.clients {
		all = append(all, cl.stale...)
	}
	return all
}

// conflictShare is the share of stale-base operations answered 409.
func (ph *docsPhase) conflictShare() float64 {
	st := ph.staleOps()
	var rejected int64
	for _, o := range st {
		if !o.admitted {
			rejected++
		}
	}
	return ratio(rejected, int64(len(st)))
}

// check is the correctness gate of a docs phase: close the router and
// reopen it through recovery; every document's digest and LSN must
// equal its last acknowledged ones (dropped documents stay gone), the
// acknowledged LSNs must be exactly the store's LSNs 1..N, each once,
// and every ConflictError must name a commit of that document above its
// base.
func (ph *docsPhase) check() []string {
	var problems []string
	if err := ph.s.rt.Close(); err != nil {
		problems = append(problems, "close: "+err.Error())
	}
	rt, err := shard.Open(ph.s.dir, storeOptions(telemetry.New()))
	if err != nil {
		return append(problems, "reopen: "+err.Error())
	}
	defer rt.Close()

	var lsns []uint64
	live := map[string]bool{}
	for name, l := range ph.logs {
		if len(l.acks) == 0 {
			continue
		}
		for _, a := range l.acks {
			lsns = append(lsns, a.lsn)
		}
		last := l.acks[len(l.acks)-1]
		info, err := rt.Get(name)
		switch {
		case last.drop:
			if !errors.Is(err, store.ErrNotFound) {
				problems = append(problems, fmt.Sprintf("%s: dropped at lsn %d but recovered (%v)", name, last.lsn, err))
			}
		case err != nil:
			problems = append(problems, fmt.Sprintf("%s: acknowledged at lsn %d but not recovered: %v", name, last.lsn, err))
		default:
			live[name] = true
			if info.LSN != last.lsn || info.Digest != last.digest {
				problems = append(problems, fmt.Sprintf("%s: recovered lsn %d digest %.12s, last acknowledged lsn %d digest %.12s",
					name, info.LSN, info.Digest, last.lsn, last.digest))
			}
		}
	}
	for _, name := range rt.Docs() {
		if !live[name] {
			problems = append(problems, fmt.Sprintf("%s: recovered but never acknowledged live", name))
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	storeLSN := rt.LSNs()[0]
	for i, l := range lsns {
		if l != uint64(i+1) {
			problems = append(problems, fmt.Sprintf("acknowledged lsns are not 1..%d each once: position %d holds %d", len(lsns), i+1, l))
			break
		}
	}
	if uint64(len(lsns)) != storeLSN {
		problems = append(problems, fmt.Sprintf("%d acknowledged commits, recovered store lsn %d", len(lsns), storeLSN))
	}
	for _, cl := range ph.clients {
		for _, c := range cl.conflicts {
			l := ph.logs[c.doc]
			i := sort.Search(len(l.acks), func(i int) bool { return l.acks[i].lsn >= c.withLSN })
			if c.withLSN <= c.base || i == len(l.acks) || l.acks[i].lsn != c.withLSN {
				problems = append(problems, fmt.Sprintf("%s: conflict names lsn %d, not an acknowledged commit of the document above base %d", c.doc, c.withLSN, c.base))
			}
		}
	}
	return problems
}

// layers reduces a traced phase to the per-layer metrics of the store
// side; setup holds the traced creates of the set-up before it.
func (ph *docsPhase) layers(setup []docTrace) (map[string]float64, []*span.Trace) {
	var traces []*span.Trace
	var admit, apply, appendUs, opSelf, readSelf []int64
	var walBytes []float64
	var get, create []time.Duration
	// The set-up's creates count for store.create_p50_ms only: the
	// other store metrics describe the timed phase.
	for _, t := range setup {
		traces = append(traces, t.tr)
		create = append(create, t.dur)
	}
	var all []docTrace
	for _, cl := range ph.clients {
		all = append(all, cl.traces...)
	}
	for _, t := range all {
		traces = append(traces, t.tr)
		switch t.kind {
		case opGet:
			get = append(get, t.dur)
		case opCreate:
			create = append(create, t.dur)
		}
		for _, s := range flatten(t.tr.View()) {
			switch s.name {
			case "store.admit":
				if t.stale {
					admit = append(admit, s.selfUs)
				}
			case "store.apply":
				apply = append(apply, s.selfUs)
			case "store.wal.append":
				appendUs = append(appendUs, s.selfUs)
				if b, ok := attrInt(s.attrs, "bytes"); ok {
					walBytes = append(walBytes, float64(b))
				}
			case "store.update", "store.create", "store.drop":
				opSelf = append(opSelf, s.selfUs)
			case "store.read":
				readSelf = append(readSelf, s.selfUs)
			}
		}
	}
	// Window entries above each stale base, counted from the
	// acknowledgments of that document.
	var checked []float64
	var admitted int64
	st := ph.staleOps()
	for _, o := range st {
		if o.admitted {
			admitted++
		}
		n := 0
		for _, a := range ph.logs[o.doc].acks {
			if a.lsn > o.base && a.lsn <= o.upper {
				n++
			}
		}
		checked = append(checked, float64(n))
	}
	return map[string]float64{
		"store.admit_p50_ms":         quantileUs(admit, 0.5) / 1000,
		"store.admit_p90_ms":         quantileUs(admit, 0.9) / 1000,
		"store.admit_checked":        mean(checked),
		"store.admit_accept_ratio":   ratio(admitted, int64(len(st))),
		"store.apply_p50_ms":         quantileUs(apply, 0.5) / 1000,
		"store.wal_append_p50_us":    quantileUs(appendUs, 0.5),
		"store.wal_bytes_per_commit": mean(walBytes),
		"store.op_self_p50_ms":       quantileUs(opSelf, 0.5) / 1000,
		"store.op_self_p99_ms":       quantileUs(opSelf, 0.99) / 1000,
		"store.snapshots":            float64(ph.snapshots),
		"store.read_self_p50_ms":     quantileUs(readSelf, 0.5) / 1000,
		"store.get_p50_ms":           quantile(get, 0.5) / ms,
		"store.create_p50_ms":        quantile(create, 0.5) / ms,
	}, traces
}

// freshDir makes an empty directory for one store under root.
func freshDir(root, name string) (string, error) {
	dir := filepath.Join(root, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
