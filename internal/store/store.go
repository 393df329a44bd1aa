// Package store is the durable document store that turns the conflict
// detector from an oracle into a concurrency-control mechanism over
// real state. Clients register named XML trees and submit READ, INSERT,
// and DELETE operations (the paper's Section 3 vocabulary) against
// them; operations carrying an optimistic base LSN are admitted through
// the detector — an operation commits only if it commutes with (or is
// untouched by, for reads) every update that landed after its base —
// and rejected operations fail with a machine-readable ConflictError
// naming the node/tree/value semantics that fired.
//
// Durability is a checksummed, length-prefixed write-ahead log with
// monotonic LSNs and an fsync policy: always (a commit is acknowledged
// after an fsync that covers it, which commits waiting together share)
// or never, plus periodic whole-store snapshots (canonical
// serialization + AHU digests) that rotate the log, keeping the segment
// since the previous snapshot. Recovery replays the WAL over the newest
// valid snapshot, cleanly cutting any torn tail and re-verifying every
// replayed record's checksum and digest, so a crash anywhere —
// including mid-append — converges to exactly the longest durable
// prefix of acknowledged commits. Replication ships committed records
// from the same two log files.
package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"xmlconflict/internal/core"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/telemetry/span"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// Options configures a Store. The zero value is a usable default:
// fsync on every commit, a 32-update admission window, snapshots only
// on demand.
type Options struct {
	// Fsync selects the durability policy for commits.
	Fsync FsyncPolicy
	// SnapshotEvery takes an automatic snapshot after this many
	// appended records, rotating the WAL; 0 snapshots only on demand.
	// Replication ships every record past the older of the two newest
	// snapshots (FramesSincePage), so it also sets how far behind a
	// peer may fall before it must catch up by full-state transfer.
	SnapshotEvery int
	// HistoryWindow is how many committed updates per document remain
	// available for optimistic admission checks (default 32). Bases
	// older than the window are rejected with ErrStaleBase.
	HistoryWindow int
	// Limits bounds document parsing everywhere the store parses XML
	// (Create, WAL replay, snapshot load). Zero value means
	// xmltree.DefaultParseLimits.
	Limits xmltree.ParseLimits
	// Metrics receives the store.* counters and timers; nil gets a
	// private registry.
	Metrics *telemetry.Metrics
}

func (o Options) withDefaults() Options {
	if o.HistoryWindow <= 0 {
		o.HistoryWindow = 32
	}
	if o.Limits == (xmltree.ParseLimits{}) {
		o.Limits = xmltree.DefaultParseLimits()
	}
	if o.Metrics == nil {
		o.Metrics = telemetry.New()
	}
	return o
}

// Op is one submitted operation against a document.
type Op struct {
	// Kind is "read", "insert", or "delete".
	Kind string
	// Pattern is the operation's XPath expression.
	Pattern string
	// X is the XML fragment an insert grafts (default "<new/>").
	X string
	// Sem is the conflict semantics a read's admission check runs
	// under (updates always use value semantics — commutation). A read
	// with any value other than node, tree or value is refused.
	Sem ops.Semantics
	// BaseLSN is the LSN the client last observed for the document; 0
	// submits against the current state with no admission check.
	BaseLSN uint64
}

// Result reports a committed (or evaluated) operation.
type Result struct {
	// Doc is the document id.
	Doc string
	// LSN is the document's LSN after the operation (unchanged by
	// reads).
	LSN uint64
	// Digest is the document's AHU digest after the operation.
	Digest string
	// Points is how many pattern matches an update applied at.
	Points int
	// Nodes holds, for reads, the canonical XML of each subtree the
	// pattern selected, in node-identity order.
	Nodes []string
}

// Info describes a stored document.
type Info struct {
	Doc    string
	LSN    uint64
	Digest string
	XML    string
	Size   int
}

// histEntry is one committed update retained for optimistic admission:
// the update itself plus the (immutable) tree it applied to, and what
// the admission screen needs to know about it, taken once at commit.
type histEntry struct {
	lsn    uint64 // the update's commit LSN
	preLSN uint64 // the document LSN the update applied on
	kind   string
	upd    ops.Update
	pre    *xmltree.Tree
	screen screenFacts
}

type doc struct {
	id     string
	tree   *xmltree.Tree
	lsn    uint64
	digest string
	hist   []histEntry
}

// Store is a durable, conflict-scheduled document store. All methods
// are safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	m    *telemetry.Metrics

	mu        sync.Mutex
	w         *wal
	docs      map[string]*doc
	lsn       uint64
	lsnCh     chan struct{} // closed (and dropped) whenever lsn advances; see WaitLSN
	sinceSnap int
	closed    bool

	// detector memoizes the static verdicts admit asks before each
	// concrete check (see settled). Every store owns one and leaves it
	// uninstrumented: admit consults it under mu, so a cache shared
	// across stores would let one shard's admission wait on another's
	// in-flight computation, and an instrumented one would merge
	// admission lookups into a server's detector_cache.* counters.
	detector *core.DetectorCache

	// xferMu guards the importer's resumable state transfer (separate
	// from mu: chunk IO must not block the commit path).
	xferMu sync.Mutex
	xferIn *xferProgress // importer resume record (mirrors disk)
}

// Open loads (or initializes) a store rooted at dir: the newest valid
// snapshot is loaded, the WAL is replayed over it with full checksum
// and digest re-verification, and any torn tail is truncated away.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := ensureDir(dir); err != nil {
		return nil, err
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		m:        opts.Metrics,
		docs:     map[string]*doc{},
		detector: core.NewDetectorCache(0),
	}

	// 1. Newest snapshot that verifies end to end wins; invalid ones
	// are counted and skipped in favor of older generations.
	names, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	hadState := len(names) > 0
	for _, name := range names {
		lsn, docs, err := loadSnapshot(filepath.Join(dir, name), opts.Limits)
		if err != nil {
			s.m.Add("store.bad_snapshots", 1)
			continue
		}
		s.docs, s.lsn = docs, lsn
		break
	}

	// 2. Open the log: wal.log, cutting any torn tail the framing scan
	// finds, and the kept segment, which is read but never cut.
	w, payloads, torn, err := openWAL(filepath.Join(dir, walName), opts.Fsync, s.m)
	if err != nil {
		return nil, err
	}
	s.w = w
	if torn {
		s.m.Add("store.torn_tail", 1)
	}
	keptPayloads, err := w.openKept()
	if err != nil {
		w.Close()
		return nil, err
	}
	hadState = hadState || len(payloads) > 0 || len(keptPayloads) > 0

	// 3. Replay the kept segment, then wal.log, past the snapshot. The
	// kept segment ends at the newest snapshot, so it has records to
	// replay only when that snapshot failed verification and an older
	// one loaded. A record that fails to decode, apply, or re-verify its
	// digest ends the durable prefix right there: in wal.log it and
	// everything after it are truncated, exactly as a torn tail is.
	kept, _, err := s.replay(keptPayloads)
	var cur segment
	stopped := false
	if err == nil {
		cur, stopped, err = s.replay(payloads)
	}
	if err == nil && stopped {
		s.m.Add("store.replay_aborts", 1)
		err = w.truncateTo(cur.end())
	}
	// wal.log's next record is s.lsn+1. Records that do not lead there
	// lie at or below the snapshot, which holds their effects (an
	// install stopped before emptying the log): they are dropped, so
	// the file stays one run of LSNs.
	if err == nil && cur.next() != s.lsn+1 {
		if len(cur.ends) > 0 {
			err = w.truncateTo(int64(len(walMagic)))
		}
		cur = segment{first: s.lsn + 1}
	}
	if err != nil {
		w.Close()
		return nil, err
	}
	w.cur.first, w.cur.ends = cur.first, cur.ends
	// The kept segment is shipped from only where wal.log continues it.
	if len(kept.ends) > 0 && kept.next() == cur.first {
		w.kept.first, w.kept.ends = kept.first, kept.ends
	} else if w.kept.f != nil {
		w.kept.f.Close()
		w.kept.f = nil
	}

	if hadState {
		s.m.Add("store.recoveries", 1)
	}
	s.m.Gauge("store.docs").Set(int64(len(s.docs)))
	return s, nil
}

// replay walks one log segment's records in order and applies each one
// past the store's LSN through prepareReplayed; of the others it reads
// only the LSN. It returns the index of the records it accepted, and
// stopped when a record that fails to decode, breaks the segment's run
// of LSNs, fails to apply or does not reproduce its digest ended the
// walk there. A record past the store's LSN that does not follow it is
// an error: the LSNs between are acknowledged commits nothing on disk
// can reproduce (a newer snapshot failed verification, and the log
// since the older one is gone), and replaying onto the older base would
// recover a state that never existed.
func (s *Store) replay(payloads [][]byte) (idx segment, stopped bool, err error) {
	end := int64(len(walMagic))
	for _, payload := range payloads {
		lsn, ok := recordLSN(payload)
		if !ok || (len(idx.ends) > 0 && lsn != idx.next()) {
			return idx, true, nil
		}
		if lsn > s.lsn+1 {
			return idx, false, fmt.Errorf(
				"store: wal resumes at lsn %d but recovery reached lsn %d: acknowledged commits %d..%d are unrecoverable (a newer snapshot failed verification); refusing to open",
				lsn, s.lsn, s.lsn+1, lsn-1)
		}
		if lsn > s.lsn {
			rec, err := decodeRecord(payload)
			if err != nil || rec.LSN != lsn {
				return idx, true, nil
			}
			commit, err := s.prepareReplayed(rec)
			if err != nil {
				return idx, true, nil
			}
			commit()
			s.m.Add("store.replayed", 1)
			s.lsn = lsn
		}
		if len(idx.ends) == 0 {
			idx.first = lsn
		}
		end += int64(frameHead + len(payload))
		idx.ends = append(idx.ends, end)
	}
	return idx, false, nil
}

// truncateTo cuts wal.log at off (used when replay stops trusting the
// file mid-way).
func (w *wal) truncateTo(off int64) error {
	if err := w.cur.f.Truncate(off); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	if _, err := w.cur.f.Seek(off, 0); err != nil {
		return fmt.Errorf("store: seek wal: %w", err)
	}
	w.off = off
	return nil
}

// prepareReplayed validates a logged record against the current
// in-memory state — applied through the same mutation path live
// commits use, with the digest the record promised re-verified — and
// returns a commit closure that publishes its effect. Nothing is
// mutated until the closure runs. Recovery replays the WAL through it
// and ApplyFrames replicated frames; the caller holds s.mu.
func (s *Store) prepareReplayed(rec record) (func(), error) {
	switch rec.Type {
	case "create":
		if _, ok := s.docs[rec.Doc]; ok {
			return nil, fmt.Errorf("create %q: already exists", rec.Doc)
		}
		t, err := s.parseLimited(rec.XML)
		if err != nil {
			return nil, err
		}
		digest := t.Digest()
		if digest != rec.Digest {
			return nil, fmt.Errorf("create %q: digest mismatch", rec.Doc)
		}
		return func() {
			s.docs[rec.Doc] = &doc{id: rec.Doc, tree: t, lsn: rec.LSN, digest: digest}
		}, nil
	case "update":
		d, ok := s.docs[rec.Doc]
		if !ok {
			return nil, fmt.Errorf("update %q: no such doc", rec.Doc)
		}
		u, _, err := s.parseUpdate(Op{Kind: rec.Kind, Pattern: rec.Pattern, X: rec.X})
		if err != nil {
			return nil, err
		}
		newTree, _, digest, err := applyUpdate(d, u)
		if err != nil {
			return nil, err
		}
		if digest != rec.Digest {
			return nil, fmt.Errorf("update %q lsn %d: digest mismatch (logged %.12s, applied %.12s)",
				rec.Doc, rec.LSN, rec.Digest, digest)
		}
		return func() { s.commitUpdate(d, rec.LSN, rec.Kind, u, newTree, digest) }, nil
	case "drop":
		if _, ok := s.docs[rec.Doc]; !ok {
			return nil, fmt.Errorf("drop %q: no such doc", rec.Doc)
		}
		return func() { delete(s.docs, rec.Doc) }, nil
	}
	return nil, fmt.Errorf("unknown record type %q", rec.Type)
}

// parseLimited parses an XML document under the store's configured
// limits.
func (s *Store) parseLimited(xml string) (*xmltree.Tree, error) {
	return xmltree.ParseWithLimits(strings.NewReader(xml), s.opts.Limits)
}

// parseUpdate compiles an Op into an executable update. The returned
// string is the canonical fragment serialization stored in the WAL.
func (s *Store) parseUpdate(op Op) (ops.Update, string, error) {
	p, err := xpath.Parse(op.Pattern)
	if err != nil {
		return nil, "", fmt.Errorf("store: pattern: %w", err)
	}
	switch op.Kind {
	case "insert":
		xs := op.X
		if xs == "" {
			xs = "<new/>"
		}
		x, err := xmltree.ParseWithLimits(strings.NewReader(xs), s.opts.Limits)
		if err != nil {
			return nil, "", fmt.Errorf("store: x: %w", err)
		}
		if l, bad := x.UnsafeLabel(); bad {
			return nil, "", fmt.Errorf("store: x: element label %q: %w", l, ErrUnsafeLabel)
		}
		return ops.Insert{P: p, X: x}, x.XML(), nil
	case "delete":
		d := ops.Delete{P: p}
		if err := d.Validate(); err != nil {
			return nil, "", err
		}
		return d, "", nil
	}
	return nil, "", fmt.Errorf("store: unknown update kind %q", op.Kind)
}

// applyUpdate derives the version of d's tree that u produces and
// returns it with the number of application points and its digest. The
// version copies only the root paths of the points and shares the rest
// with d's tree, which Apply never changes: the document is untouched
// until commitUpdate publishes the version, so a failed append never
// leaves a half-applied document.
func applyUpdate(d *doc, u ops.Update) (*xmltree.Tree, int, string, error) {
	next, points, err := u.Apply(d.tree)
	if err != nil {
		return nil, 0, "", err
	}
	return next, len(points), next.Digest(), nil
}

// commitUpdate publishes an applied update: the old tree becomes the
// newest admission-window entry, the new version becomes current, and
// the LSNs advance. Versions are immutable, so the window's pre-states
// share every subtree their successors did not change and cost their
// copied paths rather than a document each.
func (s *Store) commitUpdate(d *doc, lsn uint64, kind string, u ops.Update, newTree *xmltree.Tree, digest string) {
	e := histEntry{lsn: lsn, preLSN: d.lsn, kind: kind, upd: u, pre: d.tree, screen: updateFacts(u)}
	d.hist = trimFront(append(d.hist, e), s.opts.HistoryWindow)
	d.tree = newTree
	d.lsn = lsn
	d.digest = digest
	if lsn > s.lsn {
		s.advanceLSNLocked(lsn)
	}
}

// trimFront drops the oldest entries of a bounded log until at most max
// remain, in place: the survivors move to the front of the same array
// and the vacated tail is cleared, so a full log costs no allocation per
// append and retains nothing it dropped.
func trimFront[T any](log []T, max int) []T {
	excess := len(log) - max
	if excess <= 0 {
		return log
	}
	n := copy(log, log[excess:])
	clear(log[n:])
	return log[:n]
}

// admission counts how admit settled the window entries above a stale
// base: by the static detector alone, or by a concrete check on the
// entry's retained pre-state.
type admission struct{ static, concrete int }

// admit runs the optimistic admission check: every update committed
// after base must be invisible to a read (under op.Sem) or commute
// with an update (value semantics, the Section 6 notion). Each entry
// goes first to the paper's static detector (settled); an entry it
// does not settle gets a concrete witness check on its retained
// pre-state — polynomial (Lemma 1), not the NP-hard existential
// search — so every rejection names a real witness.
func (s *Store) admit(d *doc, op Op, rd *ops.Read, upd ops.Update) (admission, error) {
	var n admission
	base := op.BaseLSN
	if base == 0 || base >= d.lsn {
		if base > s.lsn {
			return n, fmt.Errorf("store: doc %q: base lsn %d beyond store lsn %d: %w", d.id, base, s.lsn, ErrFutureBase)
		}
		return n, nil
	}
	if len(d.hist) == 0 || d.hist[0].preLSN > base {
		return n, fmt.Errorf("store: doc %q: base lsn %d: %w", d.id, base, ErrStaleBase)
	}
	facts := opFacts(rd, upd)
	for _, e := range d.hist {
		if e.lsn <= base {
			continue
		}
		if screened(s.detector, rd, op.Sem, upd, facts, e.upd, e.screen) {
			n.static++
			continue
		}
		n.concrete++
		if rd != nil {
			fired, err := ops.FiredSemantics(*rd, e.upd, e.pre)
			if err != nil {
				return n, err
			}
			if !semFired(fired, op.Sem) {
				continue
			}
			names := make([]string, len(fired))
			for i, f := range fired {
				names[i] = f.String()
			}
			s.m.Add("store.conflict_rejections", 1)
			return n, &ConflictError{
				Doc: d.id, Op: "read", Sem: op.Sem, Fired: names,
				BaseLSN: base, WithLSN: e.lsn, WithKind: e.kind,
				Detail: fmt.Sprintf("READ %s returns a different result across the %s applied at the pre-state of lsn %d", op.Pattern, e.kind, e.lsn),
			}
		}
		noncommute, err := ops.CommuteWitness(upd, e.upd, e.pre)
		if err != nil {
			return n, err
		}
		if noncommute {
			s.m.Add("store.conflict_rejections", 1)
			return n, &ConflictError{
				Doc: d.id, Op: op.Kind, Sem: ops.ValueSemantics, Fired: []string{ops.ValueSemantics.String()},
				BaseLSN: base, WithLSN: e.lsn, WithKind: e.kind,
				Detail: fmt.Sprintf("the two application orders yield non-isomorphic documents on the pre-state of lsn %d", e.lsn),
			}
		}
	}
	return n, nil
}

// The screen asks only about small pairs, because it runs under the
// store mutex on patterns and payloads that come from clients.
// screenMaxNodes bounds its time: the linear detectors' cost grows
// about cubically with pattern size while the concrete check's grows
// linearly (uncached, on a 2-vCPU host, a pair of 16-node patterns
// took at most 0.42 ms, 64-node ones 9 ms, and a 2 000-step read 0.9 s
// per window entry, where the concrete check took 26 ms).
// screenMaxBytes bounds the rest of its time: each ask builds the pair's
// canonical text, an insert's payload code included, and a linear read
// embeds its tails in the payload, both O(payload) under the mutex.
// Memory is not the reason: the cache keys each pair by the SHA-256 of
// that text, so an entry's size does not depend on the payload.
const (
	screenMaxNodes = 16
	screenMaxBytes = 256
)

// settled reports whether the paper's static detector proves, from the
// patterns alone, that the committed update cannot affect the
// operation on any tree, and so not on the entry's pre-state either.
// It asks only where the paper gives polynomial time: Theorems 1–2 for
// a linear read, whatever the update's pattern (Corollaries 1–2), and
// the §6 independence condition, whose cross-checks are those
// theorems, when both update patterns are linear; and then only within
// the caps above. No bounded search therefore runs under the store
// mutex. Only a complete "no conflict", or a proof of independence,
// settles an entry; any other answer, or an error, leaves it to the
// concrete check. Either answer is a property of the pair alone, not
// of the document, so the store's cache keeps it as one entry: once a
// pair is cached, an entry costs one key (the patterns' renderings,
// kept on the patterns, and an insert's payload code) and one lookup,
// whichever way the answer was reached. The options carry no context,
// so no detect span nests under store.admit.
//
// settled takes each side's facts afresh; admit uses screened, with
// the operation's facts taken once per admission and each window
// entry's taken at its commit.
func settled(c *core.DetectorCache, rd *ops.Read, sem ops.Semantics, upd, committed ops.Update) bool {
	return screened(c, rd, sem, upd, opFacts(rd, upd), committed, updateFacts(committed))
}

// screened is settled given both sides' facts.
func screened(c *core.DetectorCache, rd *ops.Read, sem ops.Semantics, upd ops.Update, op screenFacts, committed ops.Update, cf screenFacts) bool {
	if !cf.small || !op.small || !op.linear {
		return false
	}
	if rd != nil {
		v, err := c.Detect(*rd, committed, sem, core.SearchOptions{})
		return err == nil && v.Complete && !v.Conflict
	}
	if !cf.linear {
		return false
	}
	ok, _, err := c.UpdatesIndependent(upd, committed, core.SearchOptions{})
	return err == nil && ok
}

// screenFacts is what the screen needs to know about one side of a
// pair: whether it is within the caps (small) and whether its pattern
// is in P^{//,*} (linear).
type screenFacts struct {
	small, linear bool
}

// opFacts takes the facts of the operation being admitted: the read's
// if it is one, else the update's.
func opFacts(rd *ops.Read, upd ops.Update) screenFacts {
	if rd != nil {
		return screenFacts{small: small(rd.P, nil), linear: rd.P.IsLinear()}
	}
	return updateFacts(upd)
}

// updateFacts takes an update's facts, counting an insert's payload
// against the caps.
func updateFacts(u ops.Update) screenFacts {
	var x *xmltree.Tree
	if ins, ok := u.(ops.Insert); ok {
		x = ins.X
	}
	return screenFacts{small: small(u.Pattern(), x), linear: u.Pattern().IsLinear()}
}

// small reports whether a pattern, with an insert's payload x (nil for
// none), is within the screen's caps: at most screenMaxNodes pattern
// nodes, and at most screenMaxBytes of text counting every label of
// both and two bytes per payload node. It stops walking at the first
// cap it passes.
func small(p *pattern.Pattern, x *xmltree.Tree) bool {
	_, n, ok := patternText(p.Root(), 0, 0)
	if !ok {
		return false
	}
	if x != nil {
		x.Walk(func(m *xmltree.Node) bool {
			n += len(m.Label()) + 2
			return n <= screenMaxBytes
		})
	}
	return n <= screenMaxBytes
}

// patternText adds the subtree at q to a count of pattern nodes and
// label bytes, and reports false as soon as either passes its cap.
func patternText(q *pattern.Node, nodes, bytes int) (int, int, bool) {
	nodes++
	bytes += len(q.Label())
	if nodes > screenMaxNodes || bytes > screenMaxBytes {
		return nodes, bytes, false
	}
	for _, c := range q.Children() {
		var ok bool
		if nodes, bytes, ok = patternText(c, nodes, bytes); !ok {
			return nodes, bytes, false
		}
	}
	return nodes, bytes, true
}

// semFired reports whether the admission semantics is among the fired
// ones.
func semFired(fired []ops.Semantics, sem ops.Semantics) bool {
	for _, f := range fired {
		if f == sem {
			return true
		}
	}
	return false
}

// Create registers a new document under id. The WAL record stores the
// canonical serialization, so replay is deterministic regardless of
// how the input was formatted.
func (s *Store) Create(id, xml string) (Result, error) {
	return s.CreateCtx(context.Background(), id, xml)
}

// CreateCtx is Create carrying a request context: a span in ctx (see
// telemetry/span) receives the store.create sub-tree, including the
// WAL append and fsync.
func (s *Store) CreateCtx(ctx context.Context, id, xml string) (Result, error) {
	sp := span.FromContext(ctx).Child("store.create")
	if sp != nil {
		sp.Set("doc", id)
		defer sp.End()
	}
	if err := validateID(id); err != nil {
		sp.Fail(err)
		return Result{}, err
	}
	t, err := xmltree.ParseWithLimits(strings.NewReader(xml), s.opts.Limits)
	if err != nil {
		return Result{}, err
	}
	if l, bad := t.UnsafeLabel(); bad {
		return Result{}, fmt.Errorf("store: doc %q: element label %q: %w", id, l, ErrUnsafeLabel)
	}
	// The tree is private until it is published, so its digest and its
	// canonical XML are taken, in one canonical pass, before the other
	// operations must wait.
	digest, canonical := t.DigestXML()

	s.mu.Lock()
	locked := true
	defer s.guardCommit(&locked)
	unlock := func() { locked = false; s.mu.Unlock() }
	reply := func(err error) error { locked = false; return s.settle(sp, err) }
	if s.closed {
		unlock()
		return Result{}, ErrClosed
	}
	if _, ok := s.docs[id]; ok {
		return Result{}, reply(fmt.Errorf("store: doc %q: %w", id, ErrExists))
	}
	lsn := s.lsn + 1
	if err := s.append(record{LSN: lsn, Type: "create", Doc: id, XML: canonical, Digest: digest}, sp); err != nil {
		unlock()
		sp.Fail(err)
		return Result{}, err
	}
	s.docs[id] = &doc{id: id, tree: t, lsn: lsn, digest: digest}
	s.advanceLSNLocked(lsn)
	s.m.Gauge("store.docs").Set(int64(len(s.docs)))
	s.maybeSnapshotLocked()
	if err := reply(nil); err != nil {
		return Result{}, err
	}
	sp.Set("lsn", lsn)
	return Result{Doc: id, LSN: lsn, Digest: digest}, nil
}

// Get returns the current state of a document. It captures the current
// version under s.mu and serializes it after unlocking: versions are
// immutable, so commits may proceed meanwhile. Under FsyncAlways it
// replies, ErrNotFound included, only once the writes that reveal the
// answer are durable.
func (s *Store) Get(id string) (Info, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Info{}, ErrClosed
	}
	d, ok := s.docs[id]
	if !ok {
		return Info{}, s.settle(nil, fmt.Errorf("store: doc %q: %w", id, ErrNotFound))
	}
	tree, info := d.tree, Info{Doc: id, LSN: d.lsn, Digest: d.digest}
	if err := s.settle(nil, nil); err != nil {
		return Info{}, err
	}
	info.XML, info.Size = tree.XML(), tree.Size()
	return info, nil
}

// Drop removes a document. The removal is itself a durable WAL record.
func (s *Store) Drop(id string) (Result, error) {
	return s.DropCtx(context.Background(), id)
}

// DropCtx is Drop carrying a request context for span propagation.
func (s *Store) DropCtx(ctx context.Context, id string) (Result, error) {
	sp := span.FromContext(ctx).Child("store.drop")
	if sp != nil {
		sp.Set("doc", id)
		defer sp.End()
	}
	s.mu.Lock()
	locked := true
	defer s.guardCommit(&locked)
	unlock := func() { locked = false; s.mu.Unlock() }
	reply := func(err error) error { locked = false; return s.settle(sp, err) }
	if s.closed {
		unlock()
		return Result{}, ErrClosed
	}
	if _, ok := s.docs[id]; !ok {
		return Result{}, reply(fmt.Errorf("store: doc %q: %w", id, ErrNotFound))
	}
	lsn := s.lsn + 1
	if err := s.append(record{LSN: lsn, Type: "drop", Doc: id}, sp); err != nil {
		unlock()
		sp.Fail(err)
		return Result{}, err
	}
	delete(s.docs, id)
	s.advanceLSNLocked(lsn)
	s.m.Gauge("store.docs").Set(int64(len(s.docs)))
	s.maybeSnapshotLocked()
	if err := reply(nil); err != nil {
		return Result{}, err
	}
	sp.Set("lsn", lsn)
	return Result{Doc: id, LSN: lsn}, nil
}

// Submit evaluates a READ or durably applies an INSERT/DELETE against
// a document, running the optimistic admission check when the Op
// carries a BaseLSN. Rejections are *ConflictError (or ErrStaleBase /
// ErrFutureBase); an acknowledged update is durable per the store's
// fsync policy.
func (s *Store) Submit(id string, op Op) (Result, error) {
	return s.SubmitCtx(context.Background(), id, op)
}

// SubmitCtx is Submit carrying a request context: a span in ctx
// receives the operation's forensic sub-tree — the admission check
// (BaseLSN window and, on rejection, the fired semantics), the apply,
// the WAL append, and the wait for a covering fsync.
func (s *Store) SubmitCtx(ctx context.Context, id string, op Op) (Result, error) {
	switch op.Kind {
	case "read":
		return s.submitRead(ctx, id, op)
	case "insert", "delete":
		return s.submitUpdate(ctx, id, op)
	}
	return Result{}, fmt.Errorf("store: unknown op kind %q (want read, insert, or delete)", op.Kind)
}

func (s *Store) submitRead(ctx context.Context, id string, op Op) (Result, error) {
	sp := span.FromContext(ctx).Child("store.read")
	if sp != nil {
		sp.Set("doc", id)
		sp.Set("base_lsn", op.BaseLSN)
		defer sp.End()
	}
	p, err := xpath.Parse(op.Pattern)
	if err != nil {
		err = fmt.Errorf("store: pattern: %w", err)
		sp.Fail(err)
		return Result{}, err
	}
	if op.Sem < ops.NodeSemantics || op.Sem > ops.ValueSemantics {
		err := fmt.Errorf("store: unknown read semantics %s", op.Sem)
		sp.Fail(err)
		return Result{}, err
	}
	rd := ops.Read{P: p}

	// Admission reads the window under s.mu; the admitted version is
	// immutable, so it is evaluated and serialized after unlocking, and
	// once the writes that reveal it are durable. A refusal waits the
	// same way.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sp.Fail(ErrClosed)
		return Result{}, ErrClosed
	}
	d, ok := s.docs[id]
	if !ok {
		err := s.settle(sp, fmt.Errorf("store: doc %q: %w", id, ErrNotFound))
		sp.Fail(err)
		return Result{}, err
	}
	if err := s.admitSpanned(sp, d, op, &rd, nil); err != nil {
		return Result{}, s.settle(sp, err)
	}
	tree, res := d.tree, Result{Doc: id, LSN: d.lsn, Digest: d.digest}
	if err := s.settle(sp, nil); err != nil {
		return Result{}, err
	}

	nodes := rd.Eval(tree)
	res.Nodes = make([]string, len(nodes))
	for i, n := range nodes {
		res.Nodes[i] = xmltree.SubtreeXML(n)
	}
	s.m.Add("store.reads", 1)
	sp.Set("nodes", len(nodes))
	return res, nil
}

func (s *Store) submitUpdate(ctx context.Context, id string, op Op) (Result, error) {
	sp := span.FromContext(ctx).Child("store.update")
	if sp != nil {
		sp.Set("doc", id)
		sp.Set("kind", op.Kind)
		sp.Set("base_lsn", op.BaseLSN)
		defer sp.End()
	}
	u, canonX, err := s.parseUpdate(op)
	if err != nil {
		sp.Fail(err)
		return Result{}, err
	}

	s.mu.Lock()
	locked := true
	defer s.guardCommit(&locked)
	unlock := func() { locked = false; s.mu.Unlock() }
	reply := func(err error) error { locked = false; return s.settle(sp, err) }
	if s.closed {
		unlock()
		sp.Fail(ErrClosed)
		return Result{}, ErrClosed
	}
	d, ok := s.docs[id]
	if !ok {
		err := reply(fmt.Errorf("store: doc %q: %w", id, ErrNotFound))
		sp.Fail(err)
		return Result{}, err
	}
	if err := s.admitSpanned(sp, d, op, nil, u); err != nil {
		return Result{}, reply(err)
	}
	asp := sp.Child("store.apply")
	newTree, points, digest, err := applyUpdate(d, u)
	if err != nil {
		asp.Fail(err)
		asp.End()
		err = reply(err)
		sp.Fail(err)
		return Result{}, err
	}
	if asp != nil {
		asp.Set("points", points)
		asp.End()
	}
	lsn := s.lsn + 1
	if err := s.append(record{
		LSN: lsn, Type: "update", Doc: id,
		Kind: op.Kind, Pattern: op.Pattern, X: canonX, Digest: digest,
	}, sp); err != nil {
		unlock()
		sp.Fail(err)
		return Result{}, err
	}
	s.commitUpdate(d, lsn, op.Kind, u, newTree, digest)
	s.m.Add("store.updates", 1)
	s.maybeSnapshotLocked()
	if err := reply(nil); err != nil {
		return Result{}, err
	}
	sp.Set("lsn", lsn)
	return Result{Doc: id, LSN: lsn, Digest: digest, Points: points}, nil
}

// admitSpanned wraps the admission check in a "store.admit" span
// carrying the BaseLSN window it scheduled against, how many window
// entries the static detector settled and how many got a concrete
// check (also counted as store.admit_static and store.admit_concrete),
// and — on a conflict rejection — the fired semantics and the
// committed update the operation collided with: the forensic payload
// of a 409.
func (s *Store) admitSpanned(parent *span.Span, d *doc, op Op, rd *ops.Read, upd ops.Update) error {
	asp := parent.Child("store.admit")
	if asp != nil {
		asp.Set("base_lsn", op.BaseLSN)
		asp.Set("doc_lsn", d.lsn)
		asp.Set("window", len(d.hist))
	}
	n, err := s.admit(d, op, rd, upd)
	if n.static > 0 {
		s.m.Add("store.admit_static", int64(n.static))
	}
	if n.concrete > 0 {
		s.m.Add("store.admit_concrete", int64(n.concrete))
	}
	if asp != nil {
		asp.Set("static", n.static)
		asp.Set("concrete", n.concrete)
		if err != nil {
			var ce *ConflictError
			if errors.As(err, &ce) {
				asp.Set("conflict", true)
				asp.Set("sem", ce.Sem.String())
				asp.Set("fired", strings.Join(ce.Fired, ","))
				asp.Set("with_lsn", ce.WithLSN)
				asp.Set("with_kind", ce.WithKind)
				asp.Flag("conflict")
			}
			asp.Fail(err)
		}
		asp.End()
	}
	return err
}

// append encodes and appends one record under a "store.wal.append"
// span (a child of parent); the caller holds s.mu, and acknowledges the
// record only through settle.
func (s *Store) append(rec record, parent *span.Span) error {
	payload, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	wsp := parent.Child("store.wal.append")
	if wsp != nil {
		wsp.Set("lsn", rec.LSN)
		wsp.Set("type", rec.Type)
		wsp.Set("bytes", len(payload))
	}
	_, err = s.w.Append(payload)
	wsp.Fail(err)
	wsp.End()
	return err
}

// guardCommit is deferred by mutating operations while they hold s.mu.
// A panic mid-commit (a crash drill via faultinject, or a real bug
// mid-append) may leave the WAL offset inconsistent with the file, so
// the store fail-stops before the lock is released and the panic
// rethrown. A containment layer above can keep the process alive, but
// the store refuses further operations until a restart re-runs
// recovery over what actually hit the disk.
func (s *Store) guardCommit(lockedp *bool) {
	if r := recover(); r != nil {
		if *lockedp {
			s.stopLocked()
			s.mu.Unlock()
		}
		panic(r)
	}
}

// settle releases s.mu, which the caller holds, and then waits for the
// fsync covering every record written so far (wal.pending): a reply
// built from what the caller saw under the mutex, a refusal included,
// must not reveal a commit a crash could still lose. It returns err, or
// the wait's failure. Only ErrClosed and a failed append, which reveal
// no commit, release the mutex without it. LSN and FramesSincePage do
// not wait either: replication ships frames before their fsync by
// design.
func (s *Store) settle(sp *span.Span, err error) error {
	n := s.w.pending()
	s.mu.Unlock()
	if werr := s.awaitDurable(n, sp); werr != nil {
		return werr
	}
	return err
}

// awaitDurable waits, under a "store.ack" span, until log position n is
// durable (see wal.waitDurable); 0 returns at once. A failed or
// panicking fsync means state already published in memory may be lost,
// so the store fail-stops, whoever issued the fsync: state the store
// cannot vouch for is never served. A restart re-runs recovery over
// what actually reached the disk. The deferred fail-stop also runs when
// the fsync panics, so it happens before the panic propagates.
func (s *Store) awaitDurable(n uint64, parent *span.Span) error {
	if n == 0 {
		return nil
	}
	ksp := parent.Child("store.ack")
	err := errSyncPanicked // still set if waitDurable panics
	defer func() {
		ksp.Fail(err)
		ksp.End()
		if err != nil {
			s.mu.Lock()
			s.stopLocked()
			s.mu.Unlock()
		}
	}()
	err = s.w.waitDurable(n, ksp)
	return err
}

// stopLocked closes the store, once: every later operation answers
// ErrClosed, parked WaitLSN waiters wake and give up, and the WAL is
// closed (see wal.Close). Close calls it, and so does every fail-stop.
// The caller holds s.mu.
func (s *Store) stopLocked() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.lsnCh != nil {
		close(s.lsnCh)
		s.lsnCh = nil
	}
	return s.w.Close()
}

// maybeSnapshotLocked auto-snapshots when the configured append count
// has accumulated. Failures degrade (the WAL still has everything) and
// are counted, never surfaced to the committing client, whose record
// the WAL or the snapshot holds even when a failed rotation fail-stops
// the store.
func (s *Store) maybeSnapshotLocked() {
	s.sinceSnap++
	if s.opts.SnapshotEvery <= 0 || s.sinceSnap < s.opts.SnapshotEvery {
		return
	}
	if _, err := s.snapshotLocked(); err != nil {
		s.m.Add("store.snapshot_errors", 1)
	}
}

// keepSnapshots is how many snapshot generations survive pruning: the
// newest and one fallback. The kept WAL segment holds exactly the
// records between them, so recovery can replay from the fallback to
// where the newest stood; an older generation would have no log to
// replay from.
const keepSnapshots = 2

// Snapshot durably captures the whole store at its current LSN and
// rotates the WAL. Returns the snapshot LSN.
func (s *Store) Snapshot() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	return s.snapshotLocked()
}

// snapshotLocked writes the snapshot, then rotates the WAL, so the kept
// segment holds the records since the snapshot before, and prunes to
// keepSnapshots generations. A panic on the way (a crash drill) may
// leave the log mid-rotation, so it fail-stops the store before it
// propagates. The caller holds s.mu.
func (s *Store) snapshotLocked() (uint64, error) {
	defer func() {
		if r := recover(); r != nil {
			s.stopLocked()
			panic(r)
		}
	}()
	snap := snapshot{LSN: s.lsn}
	for _, id := range sortedIDs(s.docs) {
		d := s.docs[id]
		snap.Docs = append(snap.Docs, snapDoc{ID: id, LSN: d.lsn, XML: d.tree.XML(), Digest: d.digest})
	}
	if _, err := writeSnapshot(s.dir, snap); err != nil {
		return 0, err
	}
	// The snapshot now durably carries every record's effect, so commits
	// waiting for an fsync are satisfied, and the log can rotate.
	s.w.covered()
	if renamed, err := s.w.rotate(); renamed {
		s.stopLocked()
		return 0, fmt.Errorf("store: wal rotation, store fail-stopped: %w", err)
	} else if err != nil {
		// wal.log keeps its records, which recovery skips up to the
		// snapshot's LSN, and the next snapshot rotates it.
		s.m.Add("store.snapshot_errors", 1)
	}
	pruneSnapshots(s.dir, keepSnapshots, snap.LSN, s.m)
	s.sinceSnap = 0
	s.m.Add("store.snapshots", 1)
	return snap.LSN, nil
}

// LSN returns the store-wide LSN of the latest committed record.
func (s *Store) LSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lsn
}

// advanceLSNLocked publishes a new store-wide LSN and wakes every
// WaitLSN waiter (the broadcast channel is closed and dropped; the
// next waiter allocates a fresh one). The caller holds s.mu.
func (s *Store) advanceLSNLocked(lsn uint64) {
	s.lsn = lsn
	if s.lsnCh != nil {
		close(s.lsnCh)
		s.lsnCh = nil
	}
}

// WaitLSN blocks until the store's LSN reaches min, reporting whether
// it did. It returns early (false) when ctx ends, the wait budget
// elapses, or the store closes. Waiters park on a commit-notification
// channel instead of polling, so many concurrent read-your-writes
// gates cost nothing while the replica catches up.
func (s *Store) WaitLSN(ctx context.Context, min uint64, wait time.Duration) bool {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		s.mu.Lock()
		if s.lsn >= min {
			s.mu.Unlock()
			return true
		}
		if s.closed {
			s.mu.Unlock()
			return false
		}
		if s.lsnCh == nil {
			s.lsnCh = make(chan struct{})
		}
		ch := s.lsnCh
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return false
		case <-timer.C:
			return s.LSN() >= min
		}
	}
}

// Docs lists the registered document ids, sorted, once the writes that
// reveal them are durable. It answers nil once the store is closed or
// fail-stopped, where Get answers ErrClosed, and so also when that wait
// fails, which fail-stops the store. An open store with no documents
// answers an empty, non-nil list.
func (s *Store) Docs() []string {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	ids := sortedIDs(s.docs)
	if s.settle(nil, nil) != nil {
		return nil
	}
	return ids
}

// Close flushes and closes the WAL. Further operations fail with
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopLocked()
}

func sortedIDs(docs map[string]*doc) []string {
	ids := make([]string, 0, len(docs))
	for id := range docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// validateID keeps document ids path- and log-safe.
func validateID(id string) error {
	if id == "" || len(id) > 128 {
		return fmt.Errorf("store: doc id must be 1-128 characters")
	}
	for _, r := range id {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
			r == '-' || r == '_' || r == '.' {
			continue
		}
		return fmt.Errorf("store: doc id %q: only letters, digits, '-', '_', '.' are allowed", id)
	}
	return nil
}

func ensureDir(dir string) error {
	if dir == "" {
		return fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: create dir: %w", err)
	}
	return nil
}
