package store

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"xmlconflict/internal/telemetry"
)

// corruptFile flips one byte of the file at offset off (negative counts
// from the end).
func corruptFile(t *testing.T, path string, off int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if off < 0 {
		off += len(b)
	}
	b[off] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte(`{"a":1}`), []byte("x"), bytes.Repeat([]byte("p"), 1000)}
	var buf []byte
	for _, p := range payloads {
		buf = append(buf, encodeFrame(p)...)
	}
	got, used, torn := scanFrames(buf)
	if torn || used != len(buf) || len(got) != len(payloads) {
		t.Fatalf("scan: used=%d torn=%v n=%d", used, torn, len(got))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("payload %d mismatch", i)
		}
	}
}

func TestScanFramesTornTails(t *testing.T) {
	whole := encodeFrame([]byte(`{"lsn":1}`))
	cases := map[string][]byte{
		"half header":       whole[:3],
		"header only":       whole[:frameHead],
		"partial payload":   whole[:len(whole)-2],
		"zero length":       append([]byte{0, 0, 0, 0}, whole[4:]...),
		"absurd length":     {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 'x'},
		"checksum mismatch": append(append([]byte{}, whole[:frameHead]...), []byte(`{"lsn":2}`)...),
	}
	for name, tail := range cases {
		buf := append(append([]byte{}, whole...), tail...)
		got, used, torn := scanFrames(buf)
		if !torn {
			t.Errorf("%s: torn tail not detected", name)
		}
		if len(got) != 1 || used != len(whole) {
			t.Errorf("%s: kept %d frames, used %d (want 1, %d)", name, len(got), used, len(whole))
		}
	}
}

func TestOpenWALFreshAndReopen(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	m := telemetry.New()
	w, payloads, torn, err := openWAL(path, FsyncAlways, m)
	if err != nil || torn || len(payloads) != 0 {
		t.Fatalf("fresh open: %v torn=%v n=%d", err, torn, len(payloads))
	}
	if _, err := w.Append([]byte("one")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := w.Append([]byte("two")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	w2, payloads, torn, err := openWAL(path, FsyncAlways, m)
	if err != nil || torn {
		t.Fatalf("reopen: %v torn=%v", err, torn)
	}
	defer w2.Close()
	if len(payloads) != 2 || string(payloads[0]) != "one" || string(payloads[1]) != "two" {
		t.Fatalf("reopen payloads: %q", payloads)
	}
}

func TestOpenWALTruncatesTornTail(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	m := telemetry.New()
	w, _, _, err := openWAL(path, FsyncNever, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("keep")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Simulate a crash mid-append: a dangling half-frame at the end.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(encodeFrame([]byte("torn"))[:6])
	f.Close()

	w2, payloads, torn, err := openWAL(path, FsyncNever, m)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !torn || len(payloads) != 1 || string(payloads[0]) != "keep" {
		t.Fatalf("torn reopen: torn=%v payloads=%q", torn, payloads)
	}
	// The tail is gone from disk, and new appends land cleanly after
	// the surviving record.
	if _, err := w2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, payloads, torn, err = openWAL(path, FsyncNever, m)
	if err != nil || torn {
		t.Fatalf("third open: %v torn=%v", err, torn)
	}
	if len(payloads) != 2 || string(payloads[1]) != "after" {
		t.Fatalf("after truncation: %q", payloads)
	}
}

func TestOpenWALShortHeaderResets(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	if err := os.WriteFile(path, []byte("XCW"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, payloads, torn, err := openWAL(path, FsyncNever, telemetry.New())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !torn || len(payloads) != 0 {
		t.Fatalf("short header: torn=%v payloads=%q", torn, payloads)
	}
}

func TestOpenWALBadMagicRefuses(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	if err := os.WriteFile(path, []byte("NOTAWAL0rest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openWAL(path, FsyncNever, telemetry.New()); err == nil {
		t.Fatal("bad magic: want error")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rec := record{LSN: 42, Type: "update", Doc: "d", Kind: "insert", Pattern: "/a//b", X: "<x/>", Digest: "abc"}
	payload, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != rec {
		t.Fatalf("round trip: %+v != %+v", got, rec)
	}
	if _, err := decodeRecord([]byte("not json")); err == nil {
		t.Fatal("want decode error")
	}
}

func TestAppendRejectsOversizedRecord(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	m := telemetry.New()
	w, _, _, err := openWAL(path, FsyncNever, m)
	if err != nil {
		t.Fatal(err)
	}
	// A payload the recovery scan would refuse to read must be refused
	// on the write side too — before any byte reaches the file.
	if _, err := w.Append(make([]byte, maxRecordBytes+1)); err == nil {
		t.Fatal("oversized append: want error")
	}
	if _, err := w.Append([]byte("ok")); err != nil {
		t.Fatalf("small append after rejection: %v", err)
	}
	w.Close()
	_, payloads, torn, err := openWAL(path, FsyncNever, m)
	if err != nil || torn || len(payloads) != 1 || string(payloads[0]) != "ok" {
		t.Fatalf("reopen after oversized rejection: %v torn=%v payloads=%q", err, torn, payloads)
	}
}

func TestWriteSnapshotRejectsOversizedPayload(t *testing.T) {
	dir := t.TempDir()
	snap := snapshot{LSN: 1, Docs: []snapDoc{{ID: "d", LSN: 1, XML: strings.Repeat("x", maxRecordBytes)}}}
	// An over-limit snapshot must error before publication: the caller
	// resets the WAL only on success, so the log still holds everything.
	if _, err := writeSnapshot(dir, snap); err == nil {
		t.Fatal("oversized snapshot: want error")
	}
	names, err := listSnapshots(dir)
	if err != nil || len(names) != 0 {
		t.Fatalf("oversized snapshot published: %v, %v", names, err)
	}
}
