package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/xmltree"
)

// A snapshot is the whole store at one LSN, so recovery is "load the
// newest valid snapshot, replay the WAL records past its LSN". The
// file reuses the WAL's framing — an 8-byte magic and one
// length+CRC-framed JSON payload — and every document carries its AHU
// digest, re-verified against the re-parsed tree at load time. A
// snapshot that fails any check (magic, frame, checksum, JSON, digest)
// is skipped, and recovery falls back to the next-newest one.
//
// Snapshots are written to a temp file, fsynced, and renamed into
// place, so a crash mid-write can never shadow an older valid
// snapshot with a torn new one.

const snapMagic = "XCSNAP01"

type snapshot struct {
	LSN  uint64    `json:"lsn"`
	Docs []snapDoc `json:"docs"`
}

type snapDoc struct {
	ID     string `json:"id"`
	LSN    uint64 `json:"lsn"`
	XML    string `json:"xml"`    // canonical serialization
	Digest string `json:"digest"` // AHU digest of the tree
}

// snapName is "snap-<lsn as 16 hex digits>.xcsnap", so lexical order is
// LSN order.
func snapName(lsn uint64) string {
	return fmt.Sprintf("snap-%016x.xcsnap", lsn)
}

// snapLSNFromName parses the LSN out of a snapshot filename.
func snapLSNFromName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".xcsnap") {
		return 0, false
	}
	hexpart := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".xcsnap")
	lsn, err := strconv.ParseUint(hexpart, 16, 64)
	if err != nil {
		return 0, false
	}
	return lsn, true
}

// listSnapshots returns the snapshot filenames in dir, newest first.
func listSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: list snapshots: %w", err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := snapLSNFromName(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names, nil
}

// writeSnapshot durably writes snap into dir and returns its path.
// The "store.snapshot.write" fault site sits between the temp-file
// create and the payload write: a panic there models a crash mid-
// snapshot, which must leave the previous snapshot authoritative.
func writeSnapshot(dir string, snap snapshot) (string, error) {
	payload, err := json.Marshal(snap)
	if err != nil {
		return "", fmt.Errorf("store: encode snapshot: %w", err)
	}
	// loadSnapshot's frame scan rejects payloads past maxRecordBytes as
	// corrupt, so writing one would publish a snapshot recovery refuses
	// to read — and the caller would then reset the WAL, losing the
	// whole store. Fail here instead; the WAL keeps everything.
	if len(payload) > maxRecordBytes {
		return "", fmt.Errorf("store: snapshot payload %d bytes exceeds the %d-byte frame limit", len(payload), maxRecordBytes)
	}
	final := filepath.Join(dir, snapName(snap.LSN))
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return "", fmt.Errorf("store: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := faultinject.Fire("store.snapshot.write"); err != nil {
		tmp.Close()
		return "", err
	}
	if _, err := tmp.Write([]byte(snapMagic)); err == nil {
		_, err = tmp.Write(encodeFrame(payload))
		if err == nil {
			err = tmp.Sync()
		}
	}
	if err != nil {
		tmp.Close()
		return "", fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("store: close snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", fmt.Errorf("store: publish snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return final, nil
}

// loadSnapshot reads and fully verifies one snapshot file: magic,
// frame checksum, JSON shape, and — after re-parsing each document —
// the recorded AHU digest.
func loadSnapshot(path string, lim xmltree.ParseLimits) (snapshot, map[string]*xmltree.Tree, error) {
	var snap snapshot
	b, err := os.ReadFile(path)
	if err != nil {
		return snap, nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	if len(b) < len(snapMagic) || string(b[:len(snapMagic)]) != snapMagic {
		return snap, nil, fmt.Errorf("store: snapshot %s: bad magic", filepath.Base(path))
	}
	payloads, used, torn := scanFrames(b[len(snapMagic):])
	if torn || len(payloads) != 1 || len(snapMagic)+used != len(b) {
		return snap, nil, fmt.Errorf("store: snapshot %s: torn or malformed frame", filepath.Base(path))
	}
	if err := json.Unmarshal(payloads[0], &snap); err != nil {
		return snap, nil, fmt.Errorf("store: snapshot %s: %w", filepath.Base(path), err)
	}
	trees := make(map[string]*xmltree.Tree, len(snap.Docs))
	for _, d := range snap.Docs {
		t, err := xmltree.ParseWithLimits(strings.NewReader(d.XML), lim)
		if err != nil {
			return snap, nil, fmt.Errorf("store: snapshot %s: doc %q: %w", filepath.Base(path), d.ID, err)
		}
		if got := t.Digest(); got != d.Digest {
			return snap, nil, fmt.Errorf("store: snapshot %s: doc %q digest mismatch (stored %.12s, recomputed %.12s)",
				filepath.Base(path), d.ID, d.Digest, got)
		}
		if d.LSN > snap.LSN {
			return snap, nil, fmt.Errorf("store: snapshot %s: doc %q lsn %d beyond snapshot lsn %d",
				filepath.Base(path), d.ID, d.LSN, snap.LSN)
		}
		trees[d.ID] = t
	}
	return snap, trees, nil
}

// pruneSnapshots removes all but the keep newest snapshot files,
// counting every listing or removal failure in the
// "store.snapshot.prune_errors" counter so an undeletable backlog is
// observable instead of silently accumulating. curLSN is the LSN of
// the snapshot this store just published: no snapshot at or beyond it
// is ever removed, even when the directory listing says it fell past
// the keep window — a prune racing another Open writing newer-LSN
// snapshots into the same directory must not delete the newest state
// this store can recover from.
func pruneSnapshots(dir string, keep int, curLSN uint64, m *telemetry.Metrics) {
	names, err := listSnapshots(dir)
	if err != nil {
		m.Add("store.snapshot.prune_errors", 1)
		return
	}
	if len(names) <= keep {
		return
	}
	for _, name := range names[keep:] {
		if lsn, ok := snapLSNFromName(name); ok && lsn >= curLSN {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			m.Add("store.snapshot.prune_errors", 1)
		}
	}
}

// removeSnapshotsAbove deletes every snapshot file in dir past lsn and
// fsyncs dir, so recovery, which loads the newest snapshot, lands on the
// one at lsn.
func removeSnapshotsAbove(dir string, lsn uint64) error {
	names, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if n, _ := snapLSNFromName(name); n > lsn {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("store: remove snapshot %s: %w", name, err)
			}
		}
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: fsync dir: %w", err)
	}
	return nil
}
