package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"xmlconflict/internal/telemetry"
)

// TestRecoveryLongestDurablePrefix is the crash-point property test:
// after N committed updates, truncating the WAL at EVERY byte offset of
// the tail record (and at every earlier frame boundary) and recovering
// must yield exactly the longest prefix of commits whose frames
// survived whole — verified by AHU digest against the digest each
// commit acknowledged.
func TestRecoveryLongestDurablePrefix(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Fsync: FsyncNever})

	rng := rand.New(rand.NewSource(7))
	labels := []string{"a", "b", "c"}
	randomFragment := func() string {
		l1, l2 := labels[rng.Intn(3)], labels[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("<%s/>", l1)
		}
		return fmt.Sprintf("<%s><%s/></%s>", l1, l2, l1)
	}

	// digests[i] is the doc's acknowledged digest after the i-th WAL
	// record; digests[0] is the create.
	var digests []string
	digests = append(digests, mustCreate(t, s, "d", "<a><b/><c/></a>").Digest)
	const updates = 8
	for i := 0; i < updates; i++ {
		var res Result
		if rng.Intn(4) == 0 {
			res = mustSubmit(t, s, "d", Op{Kind: "delete", Pattern: "//" + labels[rng.Intn(2)+1]})
		} else {
			res = mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "//" + labels[rng.Intn(2)], X: randomFragment()})
		}
		digests = append(digests, res.Digest)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, "wal.log")
	whole, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries: bounds[k] is the file offset after k complete
	// records.
	payloads, used, torn := scanFrames(whole[len(walMagic):])
	if torn || len(walMagic)+used != len(whole) || len(payloads) != len(digests) {
		t.Fatalf("wal shape: %d payloads, used %d of %d, torn=%v", len(payloads), used, len(whole)-len(walMagic), torn)
	}
	bounds := []int{len(walMagic)}
	for _, p := range payloads {
		bounds = append(bounds, bounds[len(bounds)-1]+frameHead+len(p))
	}

	// Every byte offset of the tail record, plus every earlier frame
	// boundary and one mid-record offset per earlier record.
	offsets := map[int]bool{}
	for off := bounds[len(bounds)-2]; off <= len(whole); off++ {
		offsets[off] = true
	}
	for k := 0; k < len(bounds)-1; k++ {
		offsets[bounds[k]] = true
		offsets[bounds[k]+3] = true // inside record k's frame header
	}

	crash := t.TempDir()
	for off := range offsets {
		// durable = number of complete records at or before off
		durable := 0
		for k := 1; k < len(bounds); k++ {
			if bounds[k] <= off {
				durable = k
			}
		}

		cdir := filepath.Join(crash, fmt.Sprintf("at-%d", off))
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, "wal.log"), whole[:off], 0o644); err != nil {
			t.Fatal(err)
		}

		rs, err := Open(cdir, Options{})
		if err != nil {
			t.Fatalf("offset %d: Open: %v", off, err)
		}
		if durable == 0 {
			if _, err := rs.Get("d"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("offset %d: want no doc, got %v", off, err)
			}
		} else {
			info, err := rs.Get("d")
			if err != nil {
				t.Fatalf("offset %d (durable %d): %v", off, durable, err)
			}
			if info.Digest != digests[durable-1] {
				t.Fatalf("offset %d: recovered digest %.12s, want commit %d's %.12s",
					off, info.Digest, durable-1, digests[durable-1])
			}
			if info.LSN != uint64(durable) {
				t.Fatalf("offset %d: recovered lsn %d, want %d", off, info.LSN, durable)
			}
		}
		// A truncation strictly inside a frame must be detected as torn.
		mid := off > bounds[durable] && off < len(whole)
		if mid && rs.m.Counter("store.torn_tail").Load() == 0 {
			t.Fatalf("offset %d: torn tail not counted", off)
		}
		rs.Close()
		os.RemoveAll(cdir)
	}
}

// TestRecoveryDigestMismatchEndsPrefix: a record whose checksum is
// intact but whose digest no longer matches the replayed state (here:
// because the record before it was surgically cut out) ends the durable
// prefix at the corruption, not past it.
func TestRecoveryReplayAbortOnBadRecord(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Fsync: FsyncNever})
	mustCreate(t, s, "d", "<a/>")
	first := mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
	mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a/x", X: "<y/>"})
	s.Close()

	walPath := filepath.Join(dir, "wal.log")
	whole, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	payloads, _, _ := scanFrames(whole[len(walMagic):])
	if len(payloads) != 3 {
		t.Fatalf("want 3 records, got %d", len(payloads))
	}
	// Re-frame record 2 with record 1's LSN: the checksum is valid but
	// the LSN regresses — replay must stop after record 1 (the insert),
	// keeping its acknowledged state.
	var rewritten []byte
	rewritten = append(rewritten, walMagic...)
	rewritten = append(rewritten, encodeFrame(payloads[0])...)
	rewritten = append(rewritten, encodeFrame(payloads[1])...)
	rec, err := decodeRecord(payloads[2])
	if err != nil {
		t.Fatal(err)
	}
	rec.LSN = 2 // same as record 1: a regression
	bad, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	rewritten = append(rewritten, encodeFrame(bad)...)
	if err := os.WriteFile(walPath, rewritten, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{})
	if s2.m.Counter("store.replay_aborts").Load() != 1 {
		t.Fatal("store.replay_aborts not incremented")
	}
	info, err := s2.Get("d")
	if err != nil || info.Digest != first.Digest {
		t.Fatalf("prefix after abort: %+v, %v", info, err)
	}
	// The poisoned tail was truncated: the next reopen is clean.
	s2.Close()
	s3 := openTest(t, dir, Options{})
	if s3.m.Counter("store.replay_aborts").Load() != 0 {
		t.Fatal("abort tail not truncated from disk")
	}
}

// TestRecoveryDigestReverification: a bit-flip inside a record that
// happens to keep its JSON valid is caught by the digest check. We
// simulate it by rewriting an insert's fragment (and re-checksumming,
// as a disk that corrupts before checksumming would).
func TestRecoveryDigestReverification(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Fsync: FsyncNever})
	mustCreate(t, s, "d", "<a/>")
	keep := mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
	mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<y/>"})
	s.Close()

	walPath := filepath.Join(dir, "wal.log")
	whole, _ := os.ReadFile(walPath)
	payloads, _, _ := scanFrames(whole[len(walMagic):])
	rec, err := decodeRecord(payloads[2])
	if err != nil {
		t.Fatal(err)
	}
	rec.X = "<z/>" // replay will graft the wrong fragment
	bad, _ := encodeRecord(rec)
	rewritten := append([]byte{}, walMagic...)
	rewritten = append(rewritten, encodeFrame(payloads[0])...)
	rewritten = append(rewritten, encodeFrame(payloads[1])...)
	rewritten = append(rewritten, encodeFrame(bad)...)
	if err := os.WriteFile(walPath, rewritten, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{})
	if s2.m.Counter("store.replay_aborts").Load() != 1 {
		t.Fatal("digest mismatch not counted as replay abort")
	}
	info, err := s2.Get("d")
	if err != nil || info.Digest != keep.Digest {
		t.Fatalf("state after digest mismatch: %+v, %v", info, err)
	}
}

// TestRecoveryIdempotent: recovering twice from the same directory
// yields identical state (replay does not double-apply records covered
// by the snapshot).
func TestRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	mustCreate(t, s, "d", "<a/>")
	mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
	s.Close()

	for i := 0; i < 2; i++ {
		ri, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		info, err := ri.Get("d")
		if err != nil || info.Digest != want.Digest || info.LSN != want.LSN {
			t.Fatalf("recovery %d: %+v, %v", i, info, err)
		}
		ri.Close()
	}
}

// TestRecoveryRefusesLSNGapAfterSnapshotFallback: each snapshot rotates
// the WAL, and the kept segment holds the records between the two
// newest snapshots. When that segment is gone and the newest snapshot
// fails verification, recovery falls back to an older generation and
// wal.log's records start past a hole of acknowledged commits.
// Replaying them onto the older base would fabricate a state that never
// existed; Open must refuse.
func TestRecoveryRefusesLSNGapAfterSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	mustCreate(t, s, "d", "<a/>") // lsn 1
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"}) // lsn 2
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err) // snapshot at lsn 2; wal.log restarts empty
	}
	mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<y/>"}) // lsn 3, in the WAL
	s.Close()

	names, _ := listSnapshots(dir)
	if len(names) != 2 {
		t.Fatalf("want 2 snapshot generations, got %v", names)
	}
	corruptFile(t, filepath.Join(dir, names[0]), -3)
	if err := os.Remove(filepath.Join(dir, keptName)); err != nil {
		t.Fatal(err) // the kept segment holds lsn 2
	}

	// Fallback lands on the lsn-1 snapshot, but the WAL resumes at
	// lsn 3: lsn 2 is an acknowledged commit nothing on disk can
	// reproduce.
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("want Open to refuse the lsn gap")
	}
}

// TestRecoveryAbortsOnLSNGapMidWAL: commit-time LSNs are contiguous, so
// a strictly-increasing-but-gapped record inside the WAL is corruption
// the checksum happened to bless; replay ends the durable prefix there.
func TestRecoveryAbortsOnLSNGapMidWAL(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Fsync: FsyncNever})
	mustCreate(t, s, "d", "<a/>")
	keep := mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
	mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<y/>"})
	s.Close()

	walPath := filepath.Join(dir, "wal.log")
	whole, _ := os.ReadFile(walPath)
	payloads, _, _ := scanFrames(whole[len(walMagic):])
	rec, err := decodeRecord(payloads[2])
	if err != nil {
		t.Fatal(err)
	}
	rec.LSN = 7 // skips 4..6: a gap, not believable history
	bad, _ := encodeRecord(rec)
	rewritten := append([]byte{}, walMagic...)
	rewritten = append(rewritten, encodeFrame(payloads[0])...)
	rewritten = append(rewritten, encodeFrame(payloads[1])...)
	rewritten = append(rewritten, encodeFrame(bad)...)
	if err := os.WriteFile(walPath, rewritten, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{})
	if s2.m.Counter("store.replay_aborts").Load() != 1 {
		t.Fatal("lsn gap not treated as corruption")
	}
	info, err := s2.Get("d")
	if err != nil || info.Digest != keep.Digest {
		t.Fatalf("prefix after gap abort: %+v, %v", info, err)
	}
}

// TestRecoverySkipsSnapshotWithDuplicateDocID: a snapshot listing one
// document id twice is corrupt, not "the last entry wins": recovery
// counts it bad and falls back to the older generation.
func TestRecoverySkipsSnapshotWithDuplicateDocID(t *testing.T) {
	dir := t.TempDir()
	good := snapshot{LSN: 1, Docs: dupDocSnapshot().Docs[:1]}
	for _, snap := range []snapshot{good, dupDocSnapshot()} {
		if _, err := writeSnapshot(dir, snap); err != nil {
			t.Fatal(err)
		}
	}
	m := telemetry.New()
	s := openTest(t, dir, Options{Fsync: FsyncNever, Metrics: m})
	if n := m.Snapshot().Counter("store.bad_snapshots"); n != 1 {
		t.Fatalf("store.bad_snapshots = %d, want 1", n)
	}
	info, err := s.Get("d")
	if err != nil || info.XML != "<a/>" || s.LSN() != 1 {
		t.Fatalf("recovered d = %q (err %v) at lsn %d, want <a/> at lsn 1", info.XML, err, s.LSN())
	}
}
