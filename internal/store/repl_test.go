package store

import (
	"context"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"xmlconflict/internal/faultinject"
)

// shipAll moves every frame past dst's LSN from src to dst, the way the
// replica shipper does.
func shipAll(t *testing.T, src, dst *Store) {
	t.Helper()
	frames, ok := src.FramesSince(dst.LSN())
	if !ok {
		t.Fatalf("FramesSince(%d) fell off the buffer", dst.LSN())
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
	frames, ok := primary.FramesSince(0)
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
	frames, ok := primary.FramesSince(0)
	if !ok {
		t.Fatal("full history fell off the buffer")
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
	frames, ok := s2.FramesSince(0)
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
	frames, _ := primary.FramesSince(0)

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

func TestReplBufferFallsBackToState(t *testing.T) {
	primary, err := Open(t.TempDir(), Options{Fsync: FsyncNever, ReplBuffer: 4})
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
	if _, ok := primary.FramesSince(0); ok {
		t.Fatal("FramesSince(0) should have fallen off a 4-frame buffer")
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
	frames, _ := a.FramesSince(0)
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

	frames, _ := primary.FramesSince(0)
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
	frames, _ := primary.FramesSince(0)
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
	frames, _ = primary.FramesSince(0)
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
