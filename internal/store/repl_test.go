package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"xmlconflict/internal/faultinject"
)

// framesSince is FramesSince for a test: a read error fails it.
func framesSince(t *testing.T, s *Store, after uint64) ([]ReplFrame, bool) {
	t.Helper()
	frames, ok, err := s.FramesSince(after)
	if err != nil {
		t.Fatalf("FramesSince(%d): %v", after, err)
	}
	return frames, ok
}

// framesPage is FramesSincePage for a test: a read error fails it.
func framesPage(t *testing.T, s *Store, after uint64, maxFrames, maxBytes int) (frames []ReplFrame, more, ok bool) {
	t.Helper()
	frames, more, ok, err := s.FramesSincePage(after, maxFrames, maxBytes)
	if err != nil {
		t.Fatalf("FramesSincePage(%d): %v", after, err)
	}
	return frames, more, ok
}

// shipAll moves every frame past dst's LSN from src to dst, the way the
// replica shipper does.
func shipAll(t *testing.T, src, dst *Store) {
	t.Helper()
	frames, ok := framesSince(t, src, dst.LSN())
	if !ok {
		t.Fatalf("FramesSince(%d) fell off the retained log", dst.LSN())
	}
	if _, err := dst.ApplyFrames(context.Background(), frames, 0); err != nil {
		t.Fatalf("ApplyFrames: %v", err)
	}
}

// TestApplyFramesOneFsyncPerBatch: a shipped batch is acknowledged
// after one fsync that covers every frame it appended, not one fsync
// per frame.
func TestApplyFramesOneFsyncPerBatch(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	primary := openTest(t, t.TempDir(), Options{Fsync: FsyncNever})
	backup := openTest(t, t.TempDir(), Options{Fsync: FsyncAlways})
	mustCreate(t, primary, "d", "<a/>")
	for i := 0; i < 7; i++ {
		mustSubmit(t, primary, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
	}
	frames, ok := framesSince(t, primary, 0)
	if !ok || len(frames) != 8 {
		t.Fatalf("FramesSince(0) = %d frames, ok %v; want 8", len(frames), ok)
	}
	faultinject.Arm("store.fsync", faultinject.Fault{Kind: faultinject.KindLatency})
	if lsn, err := backup.ApplyFrames(context.Background(), frames, 0); err != nil || lsn != 8 {
		t.Fatalf("ApplyFrames = %d, %v; want 8", lsn, err)
	}
	if got := faultinject.Fired("store.fsync"); got != 1 {
		t.Fatalf("8 shipped frames took %d fsyncs, want 1", got)
	}
}

func TestReplFrameShipping(t *testing.T) {
	primary, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	backup, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()

	if _, err := primary.Create("d", "<a><b/><c/></a>"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := primary.Submit("d", Op{Kind: "insert", Pattern: "/a/b", X: "<x/>"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := primary.Create("gone", "<t/>"); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Drop("gone"); err != nil {
		t.Fatal(err)
	}

	shipAll(t, primary, backup)

	if got, want := backup.LSN(), primary.LSN(); got != want {
		t.Fatalf("backup lsn %d, primary %d", got, want)
	}
	pi, err := primary.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	bi, err := backup.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	if pi.Digest != bi.Digest || pi.XML != bi.XML {
		t.Fatalf("replica diverged: primary %s %q, backup %s %q", pi.Digest, pi.XML, bi.Digest, bi.XML)
	}
	if _, err := backup.Get("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dropped doc survived replication: %v", err)
	}

	// Re-shipping the same frames must be an idempotent no-op.
	frames, ok := framesSince(t, primary, 0)
	if !ok {
		t.Fatal("full history fell off the retained log")
	}
	if _, err := backup.ApplyFrames(context.Background(), frames, 0); err != nil {
		t.Fatalf("duplicate ship: %v", err)
	}
	if backup.LSN() != primary.LSN() {
		t.Fatalf("lsn moved on duplicate ship")
	}
}

func TestReplFramesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("d", "<a/>"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("d", Op{Kind: "insert", Pattern: "/a"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: replayed records must be shippable again so a restarted
	// primary can still serve anti-entropy for its retained tail.
	s2, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	frames, ok := framesSince(t, s2, 0)
	if !ok || len(frames) != 2 {
		t.Fatalf("after restart FramesSince(0) = %d frames, ok=%v; want 2, true", len(frames), ok)
	}
}

func TestReplGapAndCorruption(t *testing.T) {
	primary, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	backup, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()

	for _, id := range []string{"a", "b", "c"} {
		if _, err := primary.Create(id, "<r/>"); err != nil {
			t.Fatal(err)
		}
	}
	frames, _ := framesSince(t, primary, 0)

	// A gap (skipping the first frame) must be refused with ErrReplGap
	// and leave the backup untouched.
	if _, err := backup.ApplyFrames(context.Background(), frames[1:], 0); !errors.Is(err, ErrReplGap) {
		t.Fatalf("gap: got %v, want ErrReplGap", err)
	}
	if backup.LSN() != 0 {
		t.Fatalf("gap advanced backup lsn to %d", backup.LSN())
	}

	// A flipped payload byte must fail the CRC check.
	bad := make([]ReplFrame, len(frames))
	copy(bad, frames)
	p := make([]byte, len(bad[0].Payload))
	copy(p, bad[0].Payload)
	p[len(p)/2] ^= 0xff
	bad[0].Payload = p
	if _, err := backup.ApplyFrames(context.Background(), bad, 0); err == nil || !strings.Contains(err.Error(), "crc mismatch") {
		t.Fatalf("corrupt payload: got %v, want crc mismatch", err)
	}

	// A frame whose CRC matches a tampered payload still fails the
	// digest re-verification (payload decodes but promises the original
	// digest) or the decode; either way nothing past it applies.
	bad[0].CRC = crc32.Checksum(p, castagnoli)
	if _, err := backup.ApplyFrames(context.Background(), bad, 0); err == nil {
		t.Fatal("tampered-but-recrc'd payload applied cleanly")
	}
	if backup.LSN() != 0 {
		t.Fatalf("tampered ship advanced backup lsn to %d", backup.LSN())
	}

	// The honest frames still apply after all those rejections.
	shipAll(t, primary, backup)
	if backup.LSN() != primary.LSN() {
		t.Fatalf("backup lsn %d, primary %d", backup.LSN(), primary.LSN())
	}
}

func TestShipHorizonFallsBackToState(t *testing.T) {
	primary, err := Open(t.TempDir(), Options{Fsync: FsyncNever, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if _, err := primary.Create("d", "<a/>"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := primary.Submit("d", Op{Kind: "insert", Pattern: "/a"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := framesSince(t, primary, 0); ok {
		t.Fatal("FramesSince(0) should have fallen off a log rotated every 4 records")
	}

	// Full-state transfer is the fallback.
	backup, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()
	if _, err := pumpXfer(t, primary, backup, 0); err != nil {
		t.Fatal(err)
	}
	if backup.LSN() != primary.LSN() {
		t.Fatalf("imported lsn %d, want %d", backup.LSN(), primary.LSN())
	}
	pi, _ := primary.Get("d")
	bi, err := backup.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	if pi.Digest != bi.Digest {
		t.Fatalf("import digest %s, want %s", bi.Digest, pi.Digest)
	}

	// And frame shipping resumes from the imported LSN.
	if _, err := primary.Submit("d", Op{Kind: "insert", Pattern: "/a"}); err != nil {
		t.Fatal(err)
	}
	shipAll(t, primary, backup)
	if backup.LSN() != primary.LSN() {
		t.Fatalf("post-import ship: backup %d, primary %d", backup.LSN(), primary.LSN())
	}
	pi, _ = primary.Get("d")

	// The imported state must survive a restart (it was snapshotted).
	dir := backup.dir
	if err := backup.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("reopen after import: %v", err)
	}
	defer re.Close()
	if re.LSN() != primary.LSN() {
		t.Fatalf("recovered lsn %d, want %d", re.LSN(), primary.LSN())
	}
	ri, err := re.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	if ri.Digest != pi.Digest {
		t.Fatalf("recovered digest %s, want %s", ri.Digest, pi.Digest)
	}
}

// TestShipPagesCrossRotation: pages read from the kept segment and on
// into wal.log, under either budget, equal the frames a store that never
// rotates ships for the same commits, and apply on a backup.
func TestShipPagesCrossRotation(t *testing.T) {
	rotating := openTest(t, t.TempDir(), Options{Fsync: FsyncNever, SnapshotEvery: 5})
	plain := openTest(t, t.TempDir(), Options{Fsync: FsyncNever})
	for _, s := range []*Store{rotating, plain} {
		mustCreate(t, s, "d", "<r/>")
		for i := 0; i < 11; i++ {
			mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/r", X: fmt.Sprintf("<n%d/>", i)})
		}
	}
	// Snapshots at 5 and 10: the kept segment holds 6..10, wal.log 11..12.
	if _, ok := framesSince(t, rotating, 4); ok {
		t.Fatal("the retained log reaches below the older snapshot")
	}
	want, _ := framesSince(t, plain, 5)
	for _, budget := range []struct{ frames, bytes int }{{3, 0}, {0, 200}, {0, 0}} {
		var got []ReplFrame
		for after, more := uint64(5), true; more; {
			page, m, ok := framesPage(t, rotating, after, budget.frames, budget.bytes)
			if !ok || len(page) == 0 {
				t.Fatalf("budget %+v: page after %d: %d frames, ok %v", budget, after, len(page), ok)
			}
			got, more, after = append(got, page...), m, page[len(page)-1].LSN
		}
		if len(got) != len(want) {
			t.Fatalf("budget %+v: %d frames, want %d", budget, len(got), len(want))
		}
		for i := range got {
			if got[i].LSN != want[i].LSN || got[i].CRC != want[i].CRC || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("budget %+v: frame %d is lsn %d crc %08x, want lsn %d crc %08x", budget, i, got[i].LSN, got[i].CRC, want[i].LSN, want[i].CRC)
			}
		}
	}
	backup := openTest(t, t.TempDir(), Options{Fsync: FsyncNever})
	head, _ := framesSince(t, plain, 0)
	if _, err := backup.ApplyFrames(context.Background(), head[:5], 0); err != nil {
		t.Fatal(err)
	}
	shipAll(t, rotating, backup)
	pi, _ := rotating.Get("d")
	if bi, err := backup.Get("d"); err != nil || bi.Digest != pi.Digest || backup.LSN() != 12 {
		t.Fatalf("backup at lsn %d with %s (%v), want lsn 12 with %s", backup.LSN(), bi.XML, err, pi.XML)
	}
}

// TestReopenedStoreShipsFromKeptSegment: the shipping horizon is read
// from the WAL files, so a restart keeps every record past the older of
// the two newest snapshots, not only those since the newest.
func TestReopenedStoreShipsFromKeptSegment(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Fsync: FsyncNever, SnapshotEvery: 4})
	mustCreate(t, s, "d", "<r/>")
	for i := 0; i < 9; i++ {
		mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/r"})
	}
	before, _ := framesSince(t, s, 4)
	s.Close()

	re := openTest(t, dir, Options{Fsync: FsyncNever, SnapshotEvery: 4})
	after, ok := framesSince(t, re, 4)
	if !ok || len(after) != 6 || len(after) != len(before) {
		t.Fatalf("reopened FramesSince(4) = %d frames, ok %v; want the 6 (5..10) shipped before the restart", len(after), ok)
	}
	for i := range after {
		if after[i].LSN != before[i].LSN || after[i].CRC != before[i].CRC {
			t.Fatalf("frame %d: lsn %d crc %08x after the restart, lsn %d crc %08x before", i, after[i].LSN, after[i].CRC, before[i].LSN, before[i].CRC)
		}
	}
	if _, ok := framesSince(t, re, 3); ok {
		t.Fatal("FramesSince(3) reaches below the kept segment")
	}
}

// TestReplOverlapBelowRetainedLogRefused: a re-shipped frame the
// receiver's retained log no longer holds cannot be verified, so it is
// refused as divergence; one it holds verifies by its header.
func TestReplOverlapBelowRetainedLogRefused(t *testing.T) {
	primary := openTest(t, t.TempDir(), Options{Fsync: FsyncNever})
	backup := openTest(t, t.TempDir(), Options{Fsync: FsyncNever, SnapshotEvery: 3})
	mustCreate(t, primary, "d", "<r/>")
	for i := 0; i < 9; i++ {
		mustSubmit(t, primary, "d", Op{Kind: "insert", Pattern: "/r"})
	}
	shipAll(t, primary, backup) // snapshots at 3, 6, 9: the backup retains 7..10
	frames, _ := framesSince(t, primary, 0)
	if lsn, err := backup.ApplyFrames(context.Background(), frames[6:], 0); err != nil || lsn != 10 {
		t.Fatalf("overlap inside the retained log: lsn %d, %v; want 10, nil", lsn, err)
	}
	if _, err := backup.ApplyFrames(context.Background(), frames[5:], 0); !errors.Is(err, ErrReplDiverged) {
		t.Fatalf("overlap below the retained log: %v, want ErrReplDiverged", err)
	}
}

// TestReplDivergentOverlapRefused: a receiver whose log already holds
// DIFFERENT content at a shipped LSN must refuse with ErrReplDiverged,
// not skip the frame and let the sender count it as replicated — that
// skip is how a diverged peer used to satisfy ack quorums for writes it
// never saw.
func TestReplDivergentOverlapRefused(t *testing.T) {
	a, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Both stores commit LSN 1, with different writes.
	if _, err := a.Create("d", "<r><from-a/></r>"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Create("d", "<r><from-b/></r>"); err != nil {
		t.Fatal(err)
	}
	frames, _ := framesSince(t, a, 0)
	if _, err := b.ApplyFrames(context.Background(), frames, 0); !errors.Is(err, ErrReplDiverged) {
		t.Fatalf("divergent overlap: got %v, want ErrReplDiverged", err)
	}
	// b's own write is untouched — nothing from a was half-applied.
	bi, err := b.Get("d")
	if err != nil || !strings.Contains(bi.XML, "from-b") {
		t.Fatalf("receiver mutated by refused ship: %q err=%v", bi.XML, err)
	}

	// The same refusal when the receiver is AHEAD of the sender: extra
	// local commits do not make the shipped prefix verifiable.
	if _, err := b.Submit("d", Op{Kind: "insert", Pattern: "/r", X: "<more/>"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ApplyFrames(context.Background(), frames, 0); !errors.Is(err, ErrReplDiverged) {
		t.Fatalf("divergent overlap (receiver ahead): got %v, want ErrReplDiverged", err)
	}
}

// TestReplWatermarkBoundsDuplicateShip: re-shipping a verified prefix
// returns the highest SHIPPED lsn, never the receiver's own position —
// a sender must not adopt acks for frames it did not put on the wire.
func TestReplWatermarkBoundsDuplicateShip(t *testing.T) {
	primary, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	backup, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()

	if _, err := primary.Create("d", "<a/>"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := primary.Submit("d", Op{Kind: "insert", Pattern: "/a"}); err != nil {
			t.Fatal(err)
		}
	}
	shipAll(t, primary, backup) // backup at lsn 4

	frames, _ := framesSince(t, primary, 0)
	lsn, err := backup.ApplyFrames(context.Background(), frames[:2], 0)
	if err != nil {
		t.Fatalf("duplicate prefix ship: %v", err)
	}
	if lsn != 2 {
		t.Fatalf("watermark for a 2-frame duplicate ship = %d, want 2 (receiver lsn %d must not leak)", lsn, backup.LSN())
	}
}

// TestReplOverlapVerifiedByImportProvenance: after a full-state import
// the frame log is empty, so overlapping re-ships cannot be verified by
// byte-identity — only the caller's provenance floor (the import came
// from this very sender) makes them acceptable.
func TestReplOverlapVerifiedByImportProvenance(t *testing.T) {
	primary, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if _, err := primary.Create("d", "<a/>"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := primary.Submit("d", Op{Kind: "insert", Pattern: "/a"}); err != nil {
			t.Fatal(err)
		}
	}
	backup, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()
	if _, err := pumpXfer(t, primary, backup, 0); err != nil {
		t.Fatal(err)
	}
	imported := primary.LSN()

	// Without the floor, the overlap is unverifiable: refuse.
	frames, _ := framesSince(t, primary, 0)
	if _, err := backup.ApplyFrames(context.Background(), frames, 0); !errors.Is(err, ErrReplDiverged) {
		t.Fatalf("unverifiable overlap without floor: got %v, want ErrReplDiverged", err)
	}
	// With the floor at the import LSN, provenance covers the overlap and
	// the watermark reaches the end of the shipped range.
	lsn, err := backup.ApplyFrames(context.Background(), frames, imported)
	if err != nil || lsn != imported {
		t.Fatalf("overlap under floor: lsn=%d err=%v, want %d, nil", lsn, err, imported)
	}
	// Frames past the floor still apply normally on the same stream.
	if _, err := primary.Submit("d", Op{Kind: "insert", Pattern: "/a"}); err != nil {
		t.Fatal(err)
	}
	frames, _ = framesSince(t, primary, 0)
	lsn, err = backup.ApplyFrames(context.Background(), frames, imported)
	if err != nil || lsn != primary.LSN() || backup.LSN() != primary.LSN() {
		t.Fatalf("ship past floor: lsn=%d err=%v backup=%d, want all at %d", lsn, err, backup.LSN(), primary.LSN())
	}
}

func TestXferRejectsBadDigest(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := snapshotBody(t, snapshot{LSN: 3, Docs: []snapDoc{{ID: "d", LSN: 3, XML: "<a/>", Digest: "not-the-digest"}}})
	if err := importBody(s, 3, body); err == nil {
		t.Fatal("bad-digest import accepted")
	}
	// The store must be untouched and still usable.
	if _, err := s.Create("ok", "<r/>"); err != nil {
		t.Fatalf("store unusable after rejected import: %v", err)
	}
}

func TestXferInstallSurvivesReopenOverNewerSnapshots(t *testing.T) {
	// A deposed primary that snapshotted past the new primary's LSN must
	// reopen at the imported state, not at its own newer, diverged
	// snapshot: recovery loads the newest snapshot on disk.
	primary, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if _, err := primary.Create("d", "<a/>"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := primary.Submit("d", Op{Kind: "insert", Pattern: "/a", X: "<b/>"}); err != nil {
			t.Fatal(err)
		}
	}
	imported := primary.LSN()
	if imported != 4 {
		t.Fatalf("export: lsn %d, want 4", imported)
	}
	want, _ := primary.Get("d")

	dir := t.TempDir()
	deposed, err := Open(dir, Options{Fsync: FsyncNever, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deposed.Create("d", "<a/>"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, err := deposed.Submit("d", Op{Kind: "insert", Pattern: "/a", X: "<diverged/>"}); err != nil {
			t.Fatal(err)
		}
	}
	if deposed.LSN() != 10 {
		t.Fatalf("deposed lsn %d, want 10", deposed.LSN())
	}
	// The deposed store is ahead, so only a replacing import installs.
	if _, err := pumpXferFrom(t, primary, deposed, 0, "", 0, true); err != nil {
		t.Fatal(err)
	}
	if err := deposed.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{Fsync: FsyncNever, SnapshotEvery: 4})
	if err != nil {
		t.Fatalf("reopen after import: %v", err)
	}
	defer re.Close()
	got, err := re.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	if re.LSN() != imported || got.Digest != want.Digest {
		t.Fatalf("reopened at lsn %d with %s, want the imported lsn %d with %s", re.LSN(), got.XML, imported, want.XML)
	}
}
