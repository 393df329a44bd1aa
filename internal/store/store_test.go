package store

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/xmltree"
)

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustCreate(t *testing.T, s *Store, id, xml string) Result {
	t.Helper()
	res, err := s.Create(id, xml)
	if err != nil {
		t.Fatalf("Create(%s): %v", id, err)
	}
	return res
}

func mustSubmit(t *testing.T, s *Store, id string, op Op) Result {
	t.Helper()
	res, err := s.Submit(id, op)
	if err != nil {
		t.Fatalf("Submit(%s, %+v): %v", id, op, err)
	}
	return res
}

func TestCreateGetDrop(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})

	res := mustCreate(t, s, "d1", "<a><b/></a>")
	if res.LSN != 1 || res.Digest == "" {
		t.Fatalf("create result: %+v", res)
	}

	info, err := s.Get("d1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if info.XML != "<a><b/></a>" || info.Digest != res.Digest || info.LSN != 1 {
		t.Fatalf("Get info: %+v", info)
	}

	if _, err := s.Create("d1", "<a/>"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: want ErrExists, got %v", err)
	}
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing get: want ErrNotFound, got %v", err)
	}
	for _, bad := range []string{"", "a/b", "x y", strings.Repeat("a", 200)} {
		if _, err := s.Create(bad, "<a/>"); err == nil {
			t.Fatalf("Create(%q): want id validation error", bad)
		}
	}

	if _, err := s.Drop("d1"); err != nil {
		t.Fatalf("Drop: %v", err)
	}
	if _, err := s.Get("d1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after drop: want ErrNotFound, got %v", err)
	}
	if _, err := s.Drop("d1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double drop: want ErrNotFound, got %v", err)
	}
}

func TestSubmitUpdateAndRead(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	mustCreate(t, s, "d", "<a><b/></a>")

	ins := mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a/b", X: "<c/>"})
	if ins.Points != 1 {
		t.Fatalf("insert points: %+v", ins)
	}
	rd := mustSubmit(t, s, "d", Op{Kind: "read", Pattern: "//b"})
	if len(rd.Nodes) != 1 || rd.Nodes[0] != "<b><c/></b>" {
		t.Fatalf("read nodes: %+v", rd.Nodes)
	}
	if rd.LSN != ins.LSN || rd.Digest != ins.Digest {
		t.Fatalf("read does not reflect update: %+v vs %+v", rd, ins)
	}

	del := mustSubmit(t, s, "d", Op{Kind: "delete", Pattern: "//c"})
	info, _ := s.Get("d")
	if info.XML != "<a><b/></a>" || info.LSN != del.LSN {
		t.Fatalf("after delete: %+v", info)
	}

	if _, err := s.Submit("d", Op{Kind: "chmod", Pattern: "/a"}); err == nil {
		t.Fatal("unknown kind: want error")
	}
	if _, err := s.Submit("d", Op{Kind: "read", Pattern: "/// !"}); err == nil {
		t.Fatal("bad pattern: want error")
	}
	if _, err := s.Submit("d", Op{Kind: "delete", Pattern: "/a"}); err == nil {
		t.Fatal("root delete: want validation error")
	}
}

func TestReadAdmissionSemantics(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	base := mustCreate(t, s, "d", "<a><b/></a>").LSN

	// The intervening insert grows the subtree under b but leaves the
	// read's node set untouched: node semantics admits, tree and value
	// reject.
	mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a/b", X: "<c/>"})

	if _, err := s.Submit("d", Op{Kind: "read", Pattern: "//b", Sem: ops.NodeSemantics, BaseLSN: base}); err != nil {
		t.Fatalf("node-semantics read should be admitted: %v", err)
	}
	_, err := s.Submit("d", Op{Kind: "read", Pattern: "//b", Sem: ops.TreeSemantics, BaseLSN: base})
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("tree-semantics read: want ConflictError, got %v", err)
	}
	if ce.Op != "read" || ce.WithKind != "insert" || ce.BaseLSN != base {
		t.Fatalf("conflict shape: %+v", ce)
	}
	wantFired := []string{"tree", "value"}
	if len(ce.Fired) != 2 || ce.Fired[0] != wantFired[0] || ce.Fired[1] != wantFired[1] {
		t.Fatalf("fired semantics: %v, want %v", ce.Fired, wantFired)
	}

	// A deletion that removes the read's matches fires all three.
	base2 := s.LSN()
	mustSubmit(t, s, "d", Op{Kind: "delete", Pattern: "//c"})
	_, err = s.Submit("d", Op{Kind: "read", Pattern: "//c", Sem: ops.NodeSemantics, BaseLSN: base2})
	if !errors.As(err, &ce) {
		t.Fatalf("want ConflictError, got %v", err)
	}
	if len(ce.Fired) != 3 {
		t.Fatalf("fired semantics: %v, want node,tree,value", ce.Fired)
	}
}

func TestUpdateAdmissionCommutation(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	base := mustCreate(t, s, "d", "<a/>").LSN
	mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})

	// delete //x does not commute with the intervening insert of <x/>:
	// one order keeps the x, the other loses it.
	_, err := s.Submit("d", Op{Kind: "delete", Pattern: "//x", BaseLSN: base})
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("want ConflictError, got %v", err)
	}
	if ce.Op != "delete" || ce.Sem != ops.ValueSemantics || len(ce.Fired) != 1 || ce.Fired[0] != "value" {
		t.Fatalf("conflict shape: %+v", ce)
	}
	if s.m.Counter("store.conflict_rejections").Load() == 0 {
		t.Fatal("store.conflict_rejections not incremented")
	}

	// Inserting an unrelated <y/> under the root commutes with the
	// insert of <x/>: admitted against the same stale base.
	if _, err := s.Submit("d", Op{Kind: "insert", Pattern: "/a", X: "<y/>", BaseLSN: base}); err != nil {
		t.Fatalf("commuting insert should be admitted: %v", err)
	}
	info, _ := s.Get("d")
	if info.XML != "<a><x/><y/></a>" {
		t.Fatalf("state after admitted insert: %s", info.XML)
	}
}

func TestBaseLSNWindow(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{HistoryWindow: 2})
	base := mustCreate(t, s, "d", "<a/>").LSN
	for i := 0; i < 3; i++ {
		mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
	}

	if _, err := s.Submit("d", Op{Kind: "read", Pattern: "/a", BaseLSN: base}); !errors.Is(err, ErrStaleBase) {
		t.Fatalf("out-of-window base: want ErrStaleBase, got %v", err)
	}
	if _, err := s.Submit("d", Op{Kind: "read", Pattern: "/a", BaseLSN: s.LSN() + 10}); !errors.Is(err, ErrFutureBase) {
		t.Fatalf("future base: want ErrFutureBase, got %v", err)
	}
	// Base equal to the current doc LSN needs no history at all.
	if _, err := s.Submit("d", Op{Kind: "read", Pattern: "/a", BaseLSN: s.LSN()}); err != nil {
		t.Fatalf("current base: %v", err)
	}
	// BaseLSN 0 opts out of admission entirely.
	if _, err := s.Submit("d", Op{Kind: "delete", Pattern: "//x"}); err != nil {
		t.Fatalf("base 0 delete: %v", err)
	}
}

func TestReopenReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	mustCreate(t, s, "d1", "<a/>")
	up := mustSubmit(t, s, "d1", Op{Kind: "insert", Pattern: "/a", X: "<x><y/></x>"})
	mustCreate(t, s, "d2", "<root><leaf/></root>")
	mustSubmit(t, s, "d2", Op{Kind: "delete", Pattern: "//leaf"})
	mustCreate(t, s, "d3", "<gone/>")
	if _, err := s.Drop("d3"); err != nil {
		t.Fatalf("Drop: %v", err)
	}
	wantLSN := s.LSN()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openTest(t, dir, Options{})
	if got := s2.LSN(); got != wantLSN {
		t.Fatalf("recovered LSN %d, want %d", got, wantLSN)
	}
	if docs := s2.Docs(); len(docs) != 2 || docs[0] != "d1" || docs[1] != "d2" {
		t.Fatalf("recovered docs: %v", docs)
	}
	info, err := s2.Get("d1")
	if err != nil || info.Digest != up.Digest || info.XML != "<a><x><y/></x></a>" {
		t.Fatalf("recovered d1: %+v, %v", info, err)
	}
	if info, _ := s2.Get("d2"); info.XML != "<root/>" {
		t.Fatalf("recovered d2: %+v", info)
	}
	if s2.m.Counter("store.recoveries").Load() != 1 {
		t.Fatal("store.recoveries not incremented")
	}
	// History survives recovery: a conflicting delete against the
	// pre-insert base is still rejected after reopen.
	var ce *ConflictError
	if _, err := s2.Submit("d1", Op{Kind: "delete", Pattern: "//x", BaseLSN: 1}); !errors.As(err, &ce) {
		t.Fatalf("post-recovery admission: want ConflictError, got %v", err)
	}
}

func TestSnapshotTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	m := telemetry.New()
	s := openTest(t, dir, Options{Metrics: m})
	mustCreate(t, s, "d", "<a/>")
	mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
	lsn, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if lsn != s.LSN() {
		t.Fatalf("snapshot lsn %d, want %d", lsn, s.LSN())
	}
	// Post-snapshot records replay on top of the snapshot.
	after := mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a/x", X: "<y/>"})
	s.Close()

	s2 := openTest(t, dir, Options{})
	info, err := s2.Get("d")
	if err != nil || info.Digest != after.Digest {
		t.Fatalf("recovered: %+v, %v", info, err)
	}
	if got := s2.m.Counter("store.replayed").Load(); got != 1 {
		t.Fatalf("replayed %d records, want exactly the 1 after the snapshot", got)
	}
}

func TestAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SnapshotEvery: 3})
	mustCreate(t, s, "d", "<a/>")
	mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
	mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
	if s.m.Counter("store.snapshots").Load() != 1 {
		t.Fatalf("auto snapshot after 3 appends: counter %d", s.m.Counter("store.snapshots").Load())
	}
	names, _ := listSnapshots(dir)
	if len(names) != 1 {
		t.Fatalf("snapshot files: %v", names)
	}
}

func TestSnapshotPruning(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	mustCreate(t, s, "d", "<a/>")
	for i := 0; i < 4; i++ {
		mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
		if _, err := s.Snapshot(); err != nil {
			t.Fatalf("Snapshot %d: %v", i, err)
		}
	}
	names, _ := listSnapshots(dir)
	if len(names) != 2 {
		t.Fatalf("kept %d snapshots, want 2: %v", len(names), names)
	}
}

// TestSnapshotWithoutAppendsKeepsSegment: a snapshot with nothing
// appended since the last rotation leaves the log as it is, so the kept
// segment still holds the records before it.
func TestSnapshotWithoutAppendsKeepsSegment(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Fsync: FsyncNever})
	mustCreate(t, s, "d", "<r/>")
	mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/r"})
	for i := 1; i <= 2; i++ {
		if _, err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if frames, ok := framesSince(t, s, 0); !ok || len(frames) != 2 {
			t.Fatalf("after snapshot %d: %d frames, ok %v; want both records", i, len(frames), ok)
		}
	}
}

func TestCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	mustCreate(t, s, "d", "<a/>")
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	want := mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	s.Close()

	// Flip a byte inside the newest snapshot's payload: its checksum
	// breaks and recovery must fall back to the older generation. The
	// insert was acknowledged (FsyncAlways) and wal.log is empty, but the
	// newest snapshot rotated the log into the kept segment, so recovery
	// replays it over the older snapshot and loses nothing.
	names, _ := listSnapshots(dir)
	if len(names) != 2 {
		t.Fatalf("want 2 snapshots, got %v", names)
	}
	corruptFile(t, dir+"/"+names[0], -3)

	s2 := openTest(t, dir, Options{})
	if s2.m.Counter("store.bad_snapshots").Load() != 1 {
		t.Fatal("store.bad_snapshots not incremented")
	}
	info, err := s2.Get("d")
	if err != nil {
		t.Fatalf("Get after fallback: %v", err)
	}
	if info.XML != "<a><x/></a>" || info.LSN != want.LSN || info.Digest != want.Digest || s2.LSN() != 2 {
		t.Fatalf("fallback state %s at lsn %d (store lsn %d), want the acknowledged <a><x/></a> at lsn %d",
			info.XML, info.LSN, s2.LSN(), want.LSN)
	}
}

func TestParseLimitsEnforced(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Limits: xmltree.ParseLimits{MaxNodes: 3}})
	if _, err := s.Create("ok", "<a><b/></a>"); err != nil {
		t.Fatalf("within limits: %v", err)
	}
	var le *xmltree.LimitError
	if _, err := s.Create("big", "<a><b/><c/><d/></a>"); !errors.As(err, &le) {
		t.Fatalf("want LimitError, got %v", err)
	}
	if _, err := s.Submit("ok", Op{Kind: "insert", Pattern: "/a", X: "<x><y/><z/><w/></x>"}); !errors.As(err, &le) {
		t.Fatalf("fragment over limits: want LimitError, got %v", err)
	}
}

func TestGroupCommitAcks(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Fsync: FsyncAlways})
	mustCreate(t, s, "d", "<a/>")
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := s.Submit("d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatalf("group-commit submit: %v", err)
		}
	}
	info, _ := s.Get("d")
	if info.Size != 9 {
		t.Fatalf("size %d, want 9", info.Size)
	}
}

// TestConcurrentCommitsShareFsync: commits append under the store
// mutex but wait for their fsync after releasing it, so commits that
// wait together share one fsync instead of queueing one each behind
// the mutex.
func TestConcurrentCommitsShareFsync(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := openTest(t, t.TempDir(), Options{Fsync: FsyncAlways})
	const writers, each = 8, 4
	for i := 0; i < writers; i++ {
		mustCreate(t, s, fmt.Sprintf("d%d", i), "<a/>")
	}
	faultinject.Arm("store.fsync", faultinject.Fault{Kind: faultinject.KindLatency, Delay: 20 * time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(doc string) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if _, err := s.Submit(doc, Op{Kind: "insert", Pattern: "/a", X: "<x/>"}); err != nil {
					t.Errorf("submit %s: %v", doc, err)
					return
				}
			}
		}(fmt.Sprintf("d%d", i))
	}
	wg.Wait()
	if got := faultinject.Fired("store.fsync"); got > writers*each/2 {
		t.Fatalf("%d commits took %d fsyncs, want at most %d", writers*each, got, writers*each/2)
	}
}

// TestConcurrentCommitsAcrossRotations: commits from several goroutines
// under FsyncAlways with a snapshot every few records, so fsyncs run
// outside the store mutex while snapshots rotate the log under it. Every
// acknowledged commit survives a reopen, and the reopened store still
// ships the records since the older snapshot.
func TestConcurrentCommitsAcrossRotations(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Fsync: FsyncAlways, SnapshotEvery: 5})
	const writers, each = 4, 25
	for i := 0; i < writers; i++ {
		mustCreate(t, s, fmt.Sprintf("d%d", i), "<a/>")
	}
	last := make([]Result, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				res, err := s.Submit(fmt.Sprintf("d%d", i), Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
				if err != nil {
					t.Errorf("submit d%d: %v", i, err)
					return
				}
				last[i] = res
			}
		}(i)
	}
	wg.Wait()
	s.Close()

	re := openTest(t, dir, Options{Fsync: FsyncAlways, SnapshotEvery: 5})
	for i, want := range last {
		if got, err := re.Get(fmt.Sprintf("d%d", i)); err != nil || got.Digest != want.Digest || got.LSN != want.LSN {
			t.Fatalf("d%d reopened at lsn %d (%v), want the acknowledged lsn %d", i, got.LSN, err, want.LSN)
		}
	}
	if frames, ok := framesSince(t, re, re.LSN()-5); !ok || len(frames) != 5 {
		t.Fatalf("reopened store ships %d of the last 5 records, ok %v", len(frames), ok)
	}
}

// TestReadWaitsForCoveringFsync: a commit is visible in memory before
// its fsync completes, because the fsync runs outside the store mutex.
// No reply may reveal it before then, a refusal included: a reply that
// showed a commit a crash could still lose would break FsyncAlways's
// contract.
func TestReadWaitsForCoveringFsync(t *testing.T) {
	const delay = 200 * time.Millisecond
	// inFlight opens a store holding "d" = <a/> at lsn base, starts
	// commit with a slow fsync, and returns once the commit is visible
	// in memory, with the time it started.
	inFlight := func(t *testing.T, commit func(s *Store)) (s *Store, base uint64, start time.Time) {
		t.Cleanup(faultinject.Reset)
		s = openTest(t, t.TempDir(), Options{Fsync: FsyncAlways})
		base = mustCreate(t, s, "d", "<a/>").LSN
		faultinject.Arm("store.fsync", faultinject.Fault{Kind: faultinject.KindLatency, Delay: delay, Times: 1})
		start = time.Now()
		go commit(s)
		if !s.WaitLSN(context.Background(), base+1, 5*time.Second) {
			t.Fatal("the commit never advanced the LSN")
		}
		return s, base, start
	}
	early := func(t *testing.T, start time.Time, what string) {
		t.Helper()
		if el := time.Since(start); el < delay {
			t.Errorf("%s after %v, before the covering fsync", what, el)
		}
	}
	insert := func(s *Store) { s.Submit("d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"}) }

	t.Run("get and read", func(t *testing.T) {
		s, base, start := inFlight(t, insert)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if info, err := s.Get("d"); err == nil && info.LSN > base {
				early(t, start, fmt.Sprintf("Get returned lsn %d", info.LSN))
			}
		}()
		go func() {
			defer wg.Done()
			if res, err := s.Submit("d", Op{Kind: "read", Pattern: "/a/x"}); err == nil && res.LSN > base {
				early(t, start, fmt.Sprintf("read returned lsn %d", res.LSN))
			}
		}()
		wg.Wait()
	})
	t.Run("docs during create", func(t *testing.T) {
		s, _, start := inFlight(t, func(s *Store) { s.Create("e", "<a/>") })
		if ids := s.Docs(); len(ids) == 2 {
			early(t, start, fmt.Sprintf("Docs listed %v", ids))
		}
	})
	t.Run("get during drop", func(t *testing.T) {
		s, _, start := inFlight(t, func(s *Store) { s.Drop("d") })
		if _, err := s.Get("d"); errors.Is(err, ErrNotFound) {
			early(t, start, "Get answered ErrNotFound")
		}
	})
	t.Run("stale delete conflict", func(t *testing.T) {
		s, base, start := inFlight(t, insert)
		_, err := s.Submit("d", Op{Kind: "delete", Pattern: "/a/x", BaseLSN: base})
		var ce *ConflictError
		if !errors.As(err, &ce) || ce.WithLSN != base+1 {
			t.Fatalf("stale delete: %v, want a 409 naming lsn %d", err, base+1)
		}
		early(t, start, fmt.Sprintf("the 409 named lsn %d", ce.WithLSN))
	})
}

func TestClosedStore(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	mustCreate(t, s, "d", "<a/>")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Get("d"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close: %v", err)
	}
	if _, err := s.Submit("d", Op{Kind: "read", Pattern: "/a"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after close: %v", err)
	}
	if _, err := s.Create("e", "<a/>"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Create after close: %v", err)
	}
	if _, err := s.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot after close: %v", err)
	}
	if ids := s.Docs(); ids != nil {
		t.Fatalf("Docs after close = %v, want nil", ids)
	}
}

func TestUnsafeLabelRejected(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	// "café" is well-formed XML, but the canonical serializer the WAL
	// and snapshots persist escapes it lossily — the replayed tree's
	// digest could never match. The store must refuse up front rather
	// than acknowledge an unrecoverable commit.
	if _, err := s.Create("d", "<café><x/></café>"); !errors.Is(err, ErrUnsafeLabel) {
		t.Fatalf("create: want ErrUnsafeLabel, got %v", err)
	}
	mustCreate(t, s, "d", "<a/>")
	if _, err := s.Submit("d", Op{Kind: "insert", Pattern: "/a", X: "<café/>"}); !errors.Is(err, ErrUnsafeLabel) {
		t.Fatalf("insert fragment: want ErrUnsafeLabel, got %v", err)
	}
	want := mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
	s.Close()

	// Nothing unrecoverable hit the log: recovery replays cleanly.
	s2 := openTest(t, dir, Options{})
	info, err := s2.Get("d")
	if err != nil || info.Digest != want.Digest || info.LSN != want.LSN {
		t.Fatalf("recovered: %+v, %v", info, err)
	}
	if s2.m.Counter("store.replay_aborts").Load() != 0 {
		t.Fatal("rejected labels reached the WAL")
	}
}

// TestWaitLSN pins the read-your-writes wait primitive: satisfied
// positions return immediately, a waiter parks (no polling) until a
// write advances the LSN past its minimum, and timeout / cancellation /
// close all release it with false.
func TestWaitLSN(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Create("d", "<r/>"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if !s.WaitLSN(ctx, s.LSN(), 0) {
		t.Fatal("WaitLSN refused an already-satisfied position")
	}
	if s.WaitLSN(ctx, s.LSN()+1, 10*time.Millisecond) {
		t.Fatal("WaitLSN satisfied a position that never arrived")
	}

	// A parked waiter wakes when a write advances the LSN.
	target := s.LSN() + 1
	done := make(chan bool, 1)
	go func() { done <- s.WaitLSN(ctx, target, 5*time.Second) }()
	time.Sleep(5 * time.Millisecond)
	if _, err := s.Submit("d", Op{Kind: "insert", Pattern: "/r", X: "<x/>"}); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("waiter not satisfied by the write that reached its LSN")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter still parked after the LSN advanced")
	}

	cctx, cancel := context.WithCancel(ctx)
	go func() { done <- s.WaitLSN(cctx, s.LSN()+100, 5*time.Second) }()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("canceled waiter reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter still parked")
	}

	go func() { done <- s.WaitLSN(ctx, s.LSN()+100, 5*time.Second) }()
	time.Sleep(5 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-done:
		if ok {
			t.Fatal("waiter on a closed store reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close left a waiter parked")
	}

	// A fail-stop releases parked waiters as Close does: a failed fsync
	// closes the store, and the waiter gives up at once rather than at
	// the end of its budget.
	t.Cleanup(faultinject.Reset)
	s2 := openTest(t, t.TempDir(), Options{Fsync: FsyncAlways})
	mustCreate(t, s2, "d", "<r/>")
	go func() { done <- s2.WaitLSN(ctx, s2.LSN()+100, 5*time.Second) }()
	time.Sleep(5 * time.Millisecond)
	faultinject.Arm("store.fsync", faultinject.Fault{Kind: faultinject.KindError, Times: 1})
	if _, err := s2.Submit("d", Op{Kind: "insert", Pattern: "/r", X: "<x/>"}); err == nil {
		t.Fatal("want the injected fsync failure")
	}
	select {
	case ok := <-done:
		if ok {
			t.Fatal("waiter on a fail-stopped store reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fail-stop left a waiter parked")
	}
}
