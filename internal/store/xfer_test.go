package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/xmltree"
)

// xferTestChunk is the chunk size the transfer tests ship at: small
// enough that the seeded state spans many chunks.
const xferTestChunk = 1024

// seedXferSource fills a store until its snapshot spans many chunks at
// xferTestChunk.
func seedXferSource(t *testing.T) *Store {
	t.Helper()
	src, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	pad := strings.Repeat("<p/>", 64)
	for i := 0; i < 24; i++ {
		if _, err := src.Create(fmt.Sprintf("doc-%02d", i), "<r>"+pad+"</r>"); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Submit(fmt.Sprintf("doc-%02d", i), Op{Kind: "insert", Pattern: "/r", X: "<x/>"}); err != nil {
			t.Fatal(err)
		}
	}
	return src
}

// pumpXfer runs the receiver-steered transfer loop the replica layer's
// catch-up pull runs: resume from the destination's durable progress,
// follow the offsets the importer returns, asking for chunk-byte chunks
// (0 = the exporter's default). Returns the chunk count on success; the
// first ImportChunk error stops the pump and is returned (the "crash").
func pumpXfer(t *testing.T, src, dst *Store, chunk int) (int, error) {
	t.Helper()
	session, offset, _ := dst.XferProgress()
	return pumpXferFrom(t, src, dst, chunk, session, offset, false)
}

// pumpXferFrom is pumpXfer for a mover that starts at its own
// (session, offset) and passes replace to every ImportChunk.
func pumpXferFrom(t *testing.T, src, dst *Store, chunk int, session string, offset int64, replace bool) (int, error) {
	t.Helper()
	chunks := 0
	for {
		c, err := src.ExportChunk(session, offset, chunk)
		if err != nil {
			t.Fatalf("ExportChunk(%s, %d): %v", session, offset, err)
		}
		session = c.Session
		chunks++
		next, complete, err := dst.ImportChunk(context.Background(), c, replace)
		if err != nil {
			return chunks, err
		}
		if complete {
			return chunks, nil
		}
		if next == c.Offset && len(c.Data) > 0 {
			t.Fatalf("importer made no progress at offset %d", next)
		}
		offset = next
	}
}

// sameDocs asserts both stores hold identical documents.
func sameDocs(t *testing.T, src, dst *Store) {
	t.Helper()
	for i := 0; i < 24; i++ {
		id := fmt.Sprintf("doc-%02d", i)
		si, err := src.Get(id)
		if err != nil {
			t.Fatalf("src get %s: %v", id, err)
		}
		di, err := dst.Get(id)
		if err != nil {
			t.Fatalf("dst get %s: %v", id, err)
		}
		if si.Digest != di.Digest {
			t.Fatalf("%s diverged: src %s dst %s", id, si.Digest, di.Digest)
		}
	}
	if src.LSN() != dst.LSN() {
		t.Fatalf("lsn: src %d dst %d", src.LSN(), dst.LSN())
	}
}

func TestXferChunkedTransferRoundTrip(t *testing.T) {
	src := seedXferSource(t)
	dst, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	chunks, err := pumpXfer(t, src, dst, xferTestChunk)
	if err != nil {
		t.Fatalf("pump: %v", err)
	}
	if chunks < 4 {
		t.Fatalf("state fit in %d chunks; the test needs a multi-chunk body", chunks)
	}
	sameDocs(t, src, dst)
	if _, _, ok := dst.XferProgress(); ok {
		t.Fatal("progress record survived a completed install")
	}
}

// TestXferCrashAtEveryChunkBoundary kills the importer at every chunk
// boundary of the transfer: each crash must leave the destination
// recoverable showing its OLD state (never a blend), and a reopened
// importer must resume from its durable progress record and finish.
func TestXferCrashAtEveryChunkBoundary(t *testing.T) {
	src := seedXferSource(t)

	// A clean run to learn the chunk count.
	probe, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	total, err := pumpXfer(t, src, probe, xferTestChunk)
	if err != nil {
		t.Fatalf("probe pump: %v", err)
	}
	probe.Close()

	for k := 0; k < total; k++ {
		t.Run(fmt.Sprintf("crash-before-chunk-%d", k), func(t *testing.T) {
			faultinject.Reset()
			t.Cleanup(faultinject.Reset)
			dir := t.TempDir()
			dst, err := Open(dir, Options{Fsync: FsyncNever})
			if err != nil {
				t.Fatal(err)
			}
			faultinject.Arm("repl.xfer.chunk", faultinject.Fault{
				Kind: faultinject.KindError, After: int64(k), Times: 1,
			})
			if _, err := pumpXfer(t, src, dst, xferTestChunk); err == nil {
				t.Fatal("armed pump completed without the injected crash")
			}
			dst.Close()

			// Crash recovery: the half-transferred state must be invisible.
			dst, err = Open(dir, Options{Fsync: FsyncNever})
			if err != nil {
				t.Fatalf("reopen after crash at chunk %d: %v", k, err)
			}
			defer dst.Close()
			if dst.LSN() != 0 {
				t.Fatalf("crash at chunk %d surfaced partial state (lsn %d)", k, dst.LSN())
			}
			if k > 0 {
				// At least one chunk landed before the crash: the reopened
				// importer must hold a resumable position, not start over.
				if _, off, ok := dst.XferProgress(); !ok || off == 0 {
					t.Fatalf("no resumable progress after crash at chunk %d (ok=%v off=%d)", k, ok, off)
				}
			}
			if _, err := pumpXfer(t, src, dst, xferTestChunk); err != nil {
				t.Fatalf("resumed pump: %v", err)
			}
			sameDocs(t, src, dst)
		})
	}
}

// TestXferCrashMidInstall crashes inside the final install, after the
// received file verified and before the rename that publishes it: a
// reopen must come back with the OLD state — the install is atomic
// however the transfer arrived.
func TestXferCrashMidInstall(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	src := seedXferSource(t)
	dir := t.TempDir()
	dst, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Create("old", "<keep/>"); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm("store.xfer.install", faultinject.Fault{Kind: faultinject.KindError, Times: 1})
	if _, err := pumpXfer(t, src, dst, xferTestChunk); err == nil {
		t.Fatal("install survived the injected crash")
	}
	dst.Close()
	faultinject.Reset()

	dst, err = Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("reopen after mid-install crash: %v", err)
	}
	defer dst.Close()
	if _, err := dst.Get("old"); err != nil {
		t.Fatalf("old state lost in failed install: %v", err)
	}
	if _, err := dst.Get("doc-00"); err == nil {
		t.Fatal("failed install leaked imported documents")
	}
}

// TestXferInstallDropsKeptSegment runs an install over an importer
// whose kept WAL segment holds its own history past the imported LSN:
// records that would apply cleanly on the imported state. A crash inside
// the install leaves the segment and the old state; a finished install
// deletes the segment before publishing the snapshot, so recovery never
// replays it over the imported state.
func TestXferInstallDropsKeptSegment(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	src := seedXferSource(t)
	dir := t.TempDir()
	dst, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, src, dst)
	imported := dst.LSN()
	if _, err := dst.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := dst.Submit("doc-00", Op{Kind: "insert", Pattern: "/r", X: "<dirty/>"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dst.Snapshot(); err != nil {
		t.Fatal(err) // the kept segment now holds the 4 dirty records
	}
	dirty := dst.LSN()
	kept := filepath.Join(dir, keptName)
	if _, err := os.Stat(kept); err != nil {
		t.Fatalf("no kept segment before the install: %v", err)
	}

	faultinject.Arm("store.xfer.install", faultinject.Fault{Kind: faultinject.KindError, Times: 1})
	if _, err := pumpXferFrom(t, src, dst, xferTestChunk, "", 0, true); err == nil {
		t.Fatal("install survived the injected crash")
	}
	dst.Close()
	faultinject.Reset()
	if dst, err = Open(dir, Options{Fsync: FsyncNever}); err != nil {
		t.Fatalf("reopen after mid-install crash: %v", err)
	}
	if _, err := os.Stat(kept); err != nil || dst.LSN() != dirty {
		t.Fatalf("after the crash: kept segment %v, lsn %d; want it kept and lsn %d", err, dst.LSN(), dirty)
	}

	if _, err := pumpXferFrom(t, src, dst, xferTestChunk, "", 0, true); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(kept); !os.IsNotExist(err) {
		t.Fatalf("kept segment survived the install: %v", err)
	}
	dst.Close()
	dst, err = Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("reopen after the install: %v", err)
	}
	defer dst.Close()
	if dst.LSN() != imported {
		t.Fatalf("reopened at lsn %d, want the imported %d: the replaced history was replayed", dst.LSN(), imported)
	}
	sameDocs(t, src, dst)
}

// TestXferWrongOffsetSteersSender: the importer never errors on an
// out-of-position chunk — it answers with the offset it needs, and an
// unknown session is told to restart at byte zero.
func TestXferWrongOffsetSteersSender(t *testing.T) {
	src := seedXferSource(t)
	dst, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	ctx := context.Background()

	// Unknown session at a non-zero offset: ship byte zero first.
	c, err := src.ExportChunk("", 0, xferTestChunk)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := src.ExportChunk(c.Session, c.Total/2, xferTestChunk)
	if err != nil {
		t.Fatal(err)
	}
	if next, complete, err := dst.ImportChunk(ctx, mid, false); err != nil || complete || next != 0 {
		t.Fatalf("mid-body chunk on fresh importer: next=%d complete=%v err=%v, want 0 false nil", next, complete, err)
	}
	// Start properly, then replay the same first chunk: the importer
	// answers with the offset after it, no duplicate append.
	next, _, err := dst.ImportChunk(ctx, c, false)
	if err != nil {
		t.Fatal(err)
	}
	again, complete, err := dst.ImportChunk(ctx, c, false)
	if err != nil || complete || again != next {
		t.Fatalf("replayed chunk: next=%d complete=%v err=%v, want steer to %d", again, complete, err, next)
	}
}

// TestXferLateMoverNeverRollsBackAppliedFrames: two movers feed one
// importer's progress record. One finishes the session and frames past
// its LSN apply; the other, resuming at its old offset, then lands the
// last chunk of the same session again. That install would put the
// store back at the session's LSN, so it must be refused, leaving the
// applied frames in place and no progress record behind.
func TestXferLateMoverNeverRollsBackAppliedFrames(t *testing.T) {
	src := seedXferSource(t)
	dst, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	ctx := context.Background()

	// The late mover ships the first chunk, then stalls.
	first, err := src.ExportChunk("", 0, xferTestChunk)
	if err != nil {
		t.Fatal(err)
	}
	next, _, err := dst.ImportChunk(ctx, first, false)
	if err != nil {
		t.Fatal(err)
	}
	// The other mover finishes the same session.
	if _, err := pumpXfer(t, src, dst, xferTestChunk); err != nil {
		t.Fatalf("pump: %v", err)
	}
	installed := dst.LSN()
	if installed != first.LSN {
		t.Fatalf("installed lsn %d, want the session's %d", installed, first.LSN)
	}

	// Three frames apply past the install.
	for i := 0; i < 3; i++ {
		if _, err := src.Submit("doc-00", Op{Kind: "insert", Pattern: "/r", X: "<late/>"}); err != nil {
			t.Fatal(err)
		}
	}
	frames, ok := framesSince(t, src, installed)
	if !ok {
		t.Fatal("frames past the install fell off the retained log")
	}
	applied, err := dst.ApplyFrames(ctx, frames, 0)
	if err != nil || applied != installed+3 {
		t.Fatalf("ApplyFrames: lsn %d err %v, want %d", applied, err, installed+3)
	}

	// The late mover resumes its stale session at its old offset.
	_, err = pumpXferFrom(t, src, dst, xferTestChunk, first.Session, next, false)
	if !errors.Is(err, ErrXferBehind) {
		t.Fatalf("stale session install: %v, want ErrXferBehind", err)
	}
	if got := dst.LSN(); got != applied {
		t.Fatalf("lsn %d after the refused install, want %d (rolled back)", got, applied)
	}
	if _, _, ok := dst.XferProgress(); ok {
		t.Fatal("refused install left a progress record behind")
	}
	want, _ := src.Get("doc-00")
	if got, err := dst.Get("doc-00"); err != nil || got.Digest != want.Digest {
		t.Fatalf("doc-00 after the refused install: %v %v, want the applied frames' digest", got.Digest, err)
	}
}

// TestFramesSincePageBounds is the regression test for the paged
// catch-up feed: both budgets bind, the first frame always ships, and
// walking pages reassembles exactly the unpaged history.
func TestFramesSincePageBounds(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Create("d", "<r/>"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, err := s.Submit("d", Op{Kind: "insert", Pattern: "/r", X: "<x/>"}); err != nil {
			t.Fatal(err)
		}
	}

	// A one-byte budget cannot fit any frame, but the page still makes
	// progress: exactly one frame, more pending.
	frames, more, ok := framesPage(t, s, 0, 0, 1)
	if !ok || len(frames) != 1 || !more {
		t.Fatalf("byte-starved page: %d frames more=%v ok=%v, want the progress-guarantee frame", len(frames), more, ok)
	}
	// The frame-count budget binds too.
	frames, more, ok = framesPage(t, s, 0, 3, 0)
	if !ok || len(frames) != 3 || !more {
		t.Fatalf("count-capped page: %d frames more=%v ok=%v", len(frames), more, ok)
	}
	// Walking the pages reassembles the unpaged feed.
	want, ok := framesSince(t, s, 0)
	if !ok {
		t.Fatal("full history fell off the retained log")
	}
	var got []ReplFrame
	after := uint64(0)
	for {
		page, more, ok := framesPage(t, s, after, 4, 0)
		if !ok {
			t.Fatalf("page after %d fell off the retained log", after)
		}
		got = append(got, page...)
		if len(page) > 0 {
			after = page[len(page)-1].LSN
		}
		if !more {
			break
		}
	}
	if len(got) != len(want) {
		t.Fatalf("paged walk returned %d frames, unpaged %d", len(got), len(want))
	}
	for i := range got {
		if got[i].LSN != want[i].LSN || got[i].CRC != want[i].CRC {
			t.Fatalf("frame %d differs: paged lsn %d crc %x, unpaged lsn %d crc %x",
				i, got[i].LSN, got[i].CRC, want[i].LSN, want[i].CRC)
		}
	}
	// An up-to-date reader gets an empty, final page.
	if frames, more, ok := framesPage(t, s, s.LSN(), 4, 0); !ok || more || len(frames) != 0 {
		t.Fatalf("caught-up page: %d frames more=%v ok=%v", len(frames), more, ok)
	}
}

// TestXferSessionFollowsSnapshotFile pins the exporter's session rule:
// receivers opening at one LSN share one session, a session keeps
// serving its snapshot while commits land for as long as the file
// exists, and once pruning removes the file the exporter opens a fresh
// session at the current LSN, from byte zero.
func TestXferSessionFollowsSnapshotFile(t *testing.T) {
	src := seedXferSource(t) // keeps the default 2 snapshots
	bump := func() {
		t.Helper()
		if _, err := src.Submit("doc-00", Op{Kind: "insert", Pattern: "/r", X: "<bump/>"}); err != nil {
			t.Fatal(err)
		}
	}

	first, err := src.ExportChunk("", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := src.ExportChunk("", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Session != first.Session {
		t.Fatalf("same-LSN open split sessions: %s vs %s", shared.Session, first.Session)
	}

	// Commits land and a session opens at the newer LSN; first's file is
	// still one of the two kept snapshots, so first keeps serving it.
	bump()
	second, err := src.ExportChunk("", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if second.Session == first.Session || second.LSN != src.LSN() {
		t.Fatalf("open after a commit: session %s at lsn %d, want a new session at lsn %d", second.Session, second.LSN, src.LSN())
	}
	c, err := src.ExportChunk(first.Session, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Session != first.Session || c.LSN != first.LSN || c.Offset != 1 {
		t.Fatalf("live session moved: %s lsn %d offset %d, want %s lsn %d offset 1", c.Session, c.LSN, c.Offset, first.Session, first.LSN)
	}

	// A third snapshot prunes first's file.
	bump()
	if _, err := src.Snapshot(); err != nil {
		t.Fatal(err)
	}
	c, err = src.ExportChunk(first.Session, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Session == first.Session || c.LSN != src.LSN() || c.Offset != 0 {
		t.Fatalf("pruned session: %s lsn %d offset %d, want a fresh session at lsn %d offset 0", c.Session, c.LSN, c.Offset, src.LSN())
	}
}

// TestXferExporterMemoryIsPerChunk: sessions are byte ranges of files
// on disk, so an exporter serving sessions at many LSNs keeps no copy
// of the store per session. Eight sessions over a 1.8 MB snapshot may
// grow the live heap by less than one snapshot.
func TestXferExporterMemoryIsPerChunk(t *testing.T) {
	src, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	xml := "<r>" + strings.Repeat("<p/>", 2000) + "</r>"
	for i := 0; i < 64; i++ {
		if _, err := src.Create(fmt.Sprintf("doc-%02d", i), xml); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.Create("bump", "<b/>"); err != nil {
		t.Fatal(err)
	}

	// Two collections each time: the first only moves sync.Pool caches
	// (encoding/json keeps its last encode buffer, one snapshot's worth)
	// to the victim cache, the second frees them.
	var before, after runtime.MemStats
	liveHeap := func(ms *runtime.MemStats) {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(ms)
	}
	liveHeap(&before)
	var total int64
	for i := 0; i < 8; i++ {
		if i > 0 {
			if _, err := src.Submit("bump", Op{Kind: "insert", Pattern: "/b", X: "<x/>"}); err != nil {
				t.Fatal(err)
			}
		}
		c, err := src.ExportChunk("", 0, xferTestChunk)
		if err != nil {
			t.Fatal(err)
		}
		total = c.Total
	}
	liveHeap(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("8 sessions grew the live heap by %d bytes; one snapshot is %d", grew, total)
	if grew > total {
		t.Fatal("exporter keeps per-session state")
	}
}

// TestXferInstallsExporterFile: the importer installs, under the same
// name, the very file the exporter served.
func TestXferInstallsExporterFile(t *testing.T) {
	src := seedXferSource(t)
	dst, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if _, err := pumpXfer(t, src, dst, xferTestChunk); err != nil {
		t.Fatalf("pump: %v", err)
	}
	name := snapName(src.LSN())
	want, err := os.ReadFile(filepath.Join(src.dir, name))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dst.dir, name))
	if err != nil {
		t.Fatalf("importer holds no %s: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("installed %s differs from the exporter's (%d vs %d bytes)", name, len(got), len(want))
	}
}

// snapshotBody returns the file bytes writeSnapshot produces for snap.
func snapshotBody(t *testing.T, snap snapshot) []byte {
	t.Helper()
	path, err := writeSnapshot(t.TempDir(), snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// importBody ships body to s as the single chunk of a fresh session at
// lsn.
func importBody(s *Store, lsn uint64, body []byte) error {
	_, _, err := s.ImportChunk(context.Background(), XferChunk{
		Session: "test", LSN: lsn, Total: int64(len(body)),
		CRC: crc32.Checksum(body, castagnoli), Data: body, Last: true,
	}, false)
	return err
}

// dupDocSnapshot lists document d twice; last-entry-wins would load it
// as <b/>.
func dupDocSnapshot() snapshot {
	return snapshot{LSN: 2, Docs: []snapDoc{
		{ID: "d", LSN: 1, XML: "<a/>", Digest: xmltree.MustParse("<a/>").Digest()},
		{ID: "d", LSN: 2, XML: "<b/>", Digest: xmltree.MustParse("<b/>").Digest()},
	}}
}

// TestXferRejectsDuplicateDocID: a shipped snapshot listing one id
// twice fails the install for that reason and leaves the importer's
// state untouched and usable.
func TestXferRejectsDuplicateDocID(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Create("keep", "<k/>"); err != nil {
		t.Fatal(err)
	}
	err = importBody(s, 2, snapshotBody(t, dupDocSnapshot()))
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate-id import: %v, want a duplicate-doc rejection", err)
	}
	if _, err := s.Get("d"); err == nil || s.LSN() != 1 {
		t.Fatalf("rejected import leaked state (lsn %d)", s.LSN())
	}
	if _, err := s.Get("keep"); err != nil {
		t.Fatalf("old state lost in rejected import: %v", err)
	}
	if _, err := s.Create("ok", "<r/>"); err != nil {
		t.Fatalf("store unusable after rejected import: %v", err)
	}
}
