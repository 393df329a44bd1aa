package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmlconflict/internal/faultinject"
)

// The chaos suite drills every faultinject crash site on the
// durability path: a KindPanic fault stands in for the process dying at
// that exact instruction. The store object is abandoned without Close —
// exactly what a crash leaves behind — and a fresh Open on the same
// directory must reproduce a prefix-consistent document whose AHU
// digest matches the last acknowledged commit.

// crashAt submits an update expecting the armed panic at site, and
// returns once the panic has been observed and faults are reset.
func crashAt(t *testing.T, s *Store, site string, f func() error) {
	t.Helper()
	faultinject.Arm(site, faultinject.Fault{Kind: faultinject.KindPanic, Times: 1})
	defer faultinject.Reset()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("site %s: expected injected panic", site)
		}
		if _, ok := r.(*faultinject.Panic); !ok {
			panic(r) // a real bug, not the drill
		}
	}()
	f()
	t.Fatalf("site %s: operation returned without panicking", site)
}

// reopenAndCheck recovers the directory and asserts the document came
// back with exactly the acknowledged digest and LSN.
func reopenAndCheck(t *testing.T, dir, doc string, want Result) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	info, err := s.Get(doc)
	if err != nil {
		t.Fatalf("recovered Get(%s): %v", doc, err)
	}
	if info.Digest != want.Digest || info.LSN != want.LSN {
		t.Fatalf("recovered %s: digest %.12s lsn %d, want acknowledged %.12s lsn %d",
			doc, info.Digest, info.LSN, want.Digest, want.LSN)
	}
	return s
}

func TestChaosKillBeforeAppend(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s := openTest(t, dir, Options{Fsync: FsyncAlways})
	mustCreate(t, s, "d", "<a/>")
	acked := mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})

	// The crash lands before any byte reaches the log: the lost update
	// was never acknowledged, so recovery owes exactly the prior state.
	crashAt(t, s, "store.append", func() error {
		_, err := s.Submit("d", Op{Kind: "insert", Pattern: "/a", X: "<y/>"})
		return err
	})
	reopenAndCheck(t, dir, "d", acked)
}

func TestChaosKillMidAppend(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s := openTest(t, dir, Options{Fsync: FsyncAlways})
	mustCreate(t, s, "d", "<a/>")
	acked := mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})

	// The crash lands between the frame header and the payload: the log
	// now ends in a torn record that recovery must cut.
	crashAt(t, s, "store.append.partial", func() error {
		_, err := s.Submit("d", Op{Kind: "insert", Pattern: "/a", X: "<y/>"})
		return err
	})
	s2 := reopenAndCheck(t, dir, "d", acked)
	if s2.m.Counter("store.torn_tail").Load() != 1 {
		t.Fatal("torn tail from the mid-append kill was not detected")
	}
	// The recovered store accepts new commits after the cut.
	if _, err := s2.Submit("d", Op{Kind: "insert", Pattern: "/a", X: "<z/>"}); err != nil {
		t.Fatalf("post-recovery submit: %v", err)
	}
}

func TestChaosKillMidSnapshot(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s := openTest(t, dir, Options{Fsync: FsyncAlways})
	mustCreate(t, s, "d", "<a/>")
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("first snapshot: %v", err)
	}
	acked := mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})

	// The crash lands after the snapshot temp file is created but
	// before its payload is written: the torn temp file must never be
	// renamed into place, leaving the older snapshot + intact WAL
	// authoritative.
	crashAt(t, s, "store.snapshot.write", func() error {
		_, err := s.Snapshot()
		return err
	})
	s2 := reopenAndCheck(t, dir, "d", acked)
	if got := s2.m.Counter("store.bad_snapshots").Load(); got != 0 {
		t.Fatalf("a torn snapshot became visible (%d bad snapshots seen)", got)
	}
}

func TestChaosSnapshotLatency(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s := openTest(t, dir, Options{Fsync: FsyncAlways})
	mustCreate(t, s, "d", "<a/>")
	// A slow snapshot device delays but does not corrupt.
	faultinject.Arm("store.snapshot.write", faultinject.Fault{Kind: faultinject.KindLatency, Times: 1})
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("slow snapshot: %v", err)
	}
	acked := mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
	s.Close()
	reopenAndCheck(t, dir, "d", acked)
}

// TestChaosKillEverySite runs the full kill-restart-verify loop over
// every crash site in sequence on one directory, interleaved with
// successful commits, so recovery composes across repeated crashes.
func TestChaosKillEverySite(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s := openTest(t, dir, Options{Fsync: FsyncAlways})
	mustCreate(t, s, "d", "<a/>")
	acked := mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})

	for _, site := range []string{"store.append", "store.append.partial", "store.snapshot.write", "store.wal.rotate"} {
		crashAt(t, s, site, func() error {
			if site == "store.snapshot.write" || site == "store.wal.rotate" {
				_, err := s.Snapshot()
				return err
			}
			_, err := s.Submit("d", Op{Kind: "insert", Pattern: "/a", X: "<y/>"})
			return err
		})
		s = reopenAndCheck(t, dir, "d", acked)
		// A fresh acknowledged commit on the recovered store becomes the
		// new expected state for the next crash.
		acked = mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<z/>"})
	}
	reopenAndCheck(t, dir, "d", acked)
}

// TestChaosRotateErrorFailsStop: an error after a snapshot renamed
// wal.log into the kept segment, before a new wal.log exists, leaves the
// open file no longer wal.log, so the store fail-stops. The commit that
// triggered the snapshot is still acknowledged, since the snapshot holds
// it, and a reopen recovers it.
func TestChaosRotateErrorFailsStop(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s := openTest(t, dir, Options{Fsync: FsyncAlways, SnapshotEvery: 3})
	mustCreate(t, s, "d", "<a/>")
	mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
	faultinject.Arm("store.wal.rotate", faultinject.Fault{Kind: faultinject.KindError, Times: 1})
	acked := mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<y/>"})
	if _, err := s.Submit("d", Op{Kind: "insert", Pattern: "/a", X: "<z/>"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after a failed rotation: %v, want ErrClosed", err)
	}
	faultinject.Reset()
	reopenAndCheck(t, dir, "d", acked)
}

// TestChaosFsyncErrorFailsStop: a commit is published to in-memory
// state before the fsync that acknowledges it, and the fsync may cover
// other published commits too, so a failed fsync cannot be rolled back
// record by record. The commit fails, and the store fail-stops rather
// than keep serving state it cannot vouch for.
func TestChaosFsyncErrorFailsStop(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s := openTest(t, dir, Options{Fsync: FsyncAlways})
	mustCreate(t, s, "d", "<a/>")
	acked := mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})

	faultinject.Arm("store.fsync", faultinject.Fault{Kind: faultinject.KindError, Times: 1})
	_, err := s.Submit("d", Op{Kind: "insert", Pattern: "/a", X: "<y/>"})
	var fe *faultinject.Error
	if !errors.As(err, &fe) {
		t.Fatalf("want the injected fsync error, got %v", err)
	}
	faultinject.Reset()

	// The state that included the failed commit is never served.
	if _, err := s.Get("d"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after a failed fsync: %v, want ErrClosed", err)
	}
	if _, err := s.Submit("d", Op{Kind: "read", Pattern: "/a"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after a failed fsync: %v, want ErrClosed", err)
	}
	if ids := s.Docs(); ids != nil {
		t.Fatalf("Docs after a failed fsync = %v, want nil", ids)
	}

	// Restart recovers at least the acknowledged prefix (the failed
	// commit's record may or may not have survived — a failed fsync
	// leaves that genuinely unknown — but nothing acked is lost).
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer s2.Close()
	info, err := s2.Get("d")
	if err != nil || info.LSN < acked.LSN {
		t.Fatalf("recovered %+v, %v; want at least acked lsn %d", info, err, acked.LSN)
	}
}

// awaitFired waits until the fault armed at site has fired n times.
func awaitFired(t *testing.T, site string, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for faultinject.Fired(site) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%s fired %d times, want %d", site, faultinject.Fired(site), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosGroupCommitAckFailureFailsStop: commits that wait together
// share one fsync (group commit), so when that fsync fails, every commit
// it was to acknowledge fails with it, not only the one that issued it,
// and the store fail-stops rather than keep serving state it disclaimed.
func TestChaosGroupCommitAckFailureFailsStop(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s := openTest(t, dir, Options{Fsync: FsyncAlways})
	base := mustCreate(t, s, "d", "<a/>").LSN

	// The first commit's fsync is slow and succeeds. Two more commits
	// are written while it runs, so neither is covered by it: both wait
	// for the next fsync, which one of them issues, and which fails.
	const delay = 500 * time.Millisecond
	faultinject.Arm("store.fsync", faultinject.Fault{Kind: faultinject.KindLatency, Delay: delay, Times: 1})
	first := make(chan error, 1)
	var acked Result
	go func() {
		res, err := s.Submit("d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
		acked = res
		first <- err
	}()
	awaitFired(t, "store.fsync", 1)
	start := time.Now()
	group := make(chan error, 2)
	for _, x := range []string{"<y/>", "<z/>"} {
		go func(x string) {
			_, err := s.Submit("d", Op{Kind: "insert", Pattern: "/a", X: x})
			group <- err
		}(x)
	}
	if !s.WaitLSN(context.Background(), base+3, 5*time.Second) {
		t.Fatal("the group's commits never advanced the LSN")
	}
	faultinject.Arm("store.fsync", faultinject.Fault{Kind: faultinject.KindError, Times: 1})
	if el := time.Since(start); el >= delay {
		t.Fatalf("the group was written %v after the first fsync began, not within its %v", el, delay)
	}

	if err := <-first; err != nil {
		t.Fatalf("the first commit, covered by a successful fsync: %v", err)
	}
	for i := 0; i < 2; i++ {
		var fe *faultinject.Error
		if err := <-group; !errors.As(err, &fe) {
			t.Fatalf("group commit %d: want the injected fsync error, got %v", i, err)
		}
	}
	if got := faultinject.Fired("store.fsync"); got != 1 {
		t.Fatalf("the group took %d failing fsyncs, want 1 shared", got)
	}
	faultinject.Reset()

	if _, err := s.Get("d"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after a failed group fsync: %v, want ErrClosed", err)
	}
	if _, err := s.Submit("d", Op{Kind: "read", Pattern: "/a"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after a failed group fsync: %v, want ErrClosed", err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer s2.Close()
	info, err := s2.Get("d")
	if err != nil || info.LSN < acked.LSN {
		t.Fatalf("recovered %+v, %v; want at least acked lsn %d", info, err, acked.LSN)
	}
}

// TestChaosFsyncPanicReleasesFollowers: the fsync runs outside the
// store mutex, issued by one waiting commit for all of them. When it
// panics (a crash drill), the commits waiting on it must not hang: the
// log is poisoned, every waiter wakes with an error, and the store
// fail-stops. A reopen then recovers every acknowledged commit.
func TestChaosFsyncPanicReleasesFollowers(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s := openTest(t, dir, Options{Fsync: FsyncAlways})
	const writers = 8
	var mu sync.Mutex
	acked := map[string]Result{}
	for i := 0; i < writers; i++ {
		doc := fmt.Sprintf("d%d", i)
		acked[doc] = mustCreate(t, s, doc, "<a/>")
	}

	faultinject.Arm("store.fsync", faultinject.Fault{Kind: faultinject.KindPanic, Times: 1})
	var panics atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(doc string) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(*faultinject.Panic); !ok {
						panic(r)
					}
					panics.Add(1)
				}
			}()
			for {
				res, err := s.Submit(doc, Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
				if err != nil {
					return
				}
				mu.Lock()
				acked[doc] = res
				mu.Unlock()
			}
		}(fmt.Sprintf("d%d", i))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("writers still blocked 2 s after the fsync panicked")
	}
	if panics.Load() != 1 {
		t.Fatalf("%d writers saw the injected panic, want 1 (the fsync's issuer)", panics.Load())
	}
	if _, err := s.Submit("d0", Op{Kind: "insert", Pattern: "/a", X: "<y/>"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after the fsync panic: %v, want ErrClosed", err)
	}
	if _, err := s.Get("d0"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after the fsync panic: %v, want ErrClosed", err)
	}
	faultinject.Reset()

	s2 := openTest(t, dir, Options{})
	for doc, want := range acked {
		info, err := s2.Get(doc)
		if err != nil || info.LSN < want.LSN {
			t.Fatalf("recovered %s: %+v, %v; want at least acked lsn %d", doc, info, err, want.LSN)
		}
	}
}
