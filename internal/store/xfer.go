package store

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/telemetry/span"
)

// Chunked, resumable state transfer ships the durable snapshot file. A
// session is the snapshot at the exporter's LSN when the session
// opened, named by that LSN and the payload CRC in the file's frame
// header; every chunk is a byte range read from that file, so the
// exporter keeps nothing per session, and a session lives as long as
// its file survives pruning. The importer appends each verified chunk
// to a part file and durably records its progress, so a reopened (or
// re-connected) importer resumes at the recorded offset instead of
// restarting. When the last byte lands, loadSnapshot — the loader
// recovery runs — verifies the part file, and a rename publishes it as
// the store's newest snapshot, unless the session lies below the
// store's own LSN and the caller is not replacing the store. Until that
// rename, the only trace of the transfer is the part file recovery
// ignores.

const (
	// xferPartName accumulates verified chunk bytes in the store dir.
	xferPartName = "repl-xfer.part"
	// xferProgressName is the durable resume record next to it.
	xferProgressName = "repl-xfer.json"
	// xferDefaultChunk is the chunk size when the caller names none;
	// xferMaxChunk caps a single chunk regardless of what the caller
	// asks for.
	xferDefaultChunk = 1 << 20
	xferMaxChunk     = 8 << 20
	// xferMaxTotal is the largest snapshot file loadSnapshot accepts.
	xferMaxTotal = len(snapMagic) + frameHead + maxRecordBytes
)

// XferChunk is one CRC-framed slice of a snapshot file in transit.
// Offset/Total are byte positions in the session's file; CRC covers
// Data. The file's own frame CRC covers the whole payload and is
// checked at install.
type XferChunk struct {
	Session string `json:"session"`
	LSN     uint64 `json:"lsn"`
	Offset  int64  `json:"offset"`
	Total   int64  `json:"total"`
	CRC     uint32 `json:"crc"`
	Data    []byte `json:"data"`
	Last    bool   `json:"last,omitempty"`
}

// xferProgress is the importer's durable resume record (same strict
// load discipline as every other manifest: corrupt means start over,
// it never guesses).
type xferProgress struct {
	Version int    `json:"version"`
	Session string `json:"session"`
	LSN     uint64 `json:"lsn"`
	Total   int64  `json:"total"`
	Offset  int64  `json:"offset"`
}

// ExportChunk serves bytes [offset, offset+max) of a state-transfer
// session's snapshot file. An empty session, or one whose file was
// pruned or no longer carries its CRC, opens a fresh session at the
// store's current LSN; the receiver detects the new session id and
// restarts its part file. Sessions opened at one LSN share one id.
// max <= 0 uses a 1 MiB chunk.
func (s *Store) ExportChunk(session string, offset int64, max int) (XferChunk, error) {
	if max <= 0 {
		max = xferDefaultChunk
	}
	max = min(max, xferMaxChunk)
	f, id, lsn, err := s.openXferSession(session)
	if err != nil {
		return XferChunk{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return XferChunk{}, fmt.Errorf("store: xfer stat snapshot: %w", err)
	}
	total := fi.Size()
	if id != session || offset < 0 || offset > total {
		offset = 0 // a fresh session always starts at byte zero
	}
	data := make([]byte, min(int64(max), total-offset))
	if _, err := f.ReadAt(data, offset); err != nil {
		return XferChunk{}, fmt.Errorf("store: xfer read snapshot: %w", err)
	}
	s.m.Add("store.xfer.chunks_served", 1)
	return XferChunk{
		Session: id,
		LSN:     lsn,
		Offset:  offset,
		Total:   total,
		CRC:     crc32.Checksum(data, castagnoli),
		Data:    data,
		Last:    offset+int64(len(data)) == total,
	}, nil
}

// openXferSession opens the snapshot file behind session. When session
// names no such file, it opens a fresh session at the store's current
// LSN, first taking a snapshot if that LSN has no readable one. Only a
// snapshot at the current LSN is ever served: a receiver may already
// hold writes past an older one, and would refuse to install it.
func (s *Store) openXferSession(session string) (*os.File, string, uint64, error) {
	var lsn uint64
	if _, err := fmt.Sscanf(session, "%16x", &lsn); err == nil {
		if f, id, err := openSnapshotSession(s.dir, lsn); err == nil {
			if id == session {
				return f, id, lsn, nil
			}
			f.Close()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, "", 0, ErrClosed
	}
	f, id, err := openSnapshotSession(s.dir, s.lsn)
	if err != nil {
		if _, err := s.snapshotLocked(); err != nil {
			return nil, "", 0, err
		}
		if f, id, err = openSnapshotSession(s.dir, s.lsn); err != nil {
			return nil, "", 0, err
		}
	}
	s.m.Add("store.xfer.sessions", 1)
	return f, id, s.lsn, nil
}

// openSnapshotSession opens snap-<lsn>.xcsnap and names its transfer
// session after the LSN and the payload CRC in the frame header. The
// open file stays readable even if the snapshot is pruned meanwhile.
func openSnapshotSession(dir string, lsn uint64) (*os.File, string, error) {
	f, err := os.Open(filepath.Join(dir, snapName(lsn)))
	if err != nil {
		return nil, "", err
	}
	hdr := make([]byte, len(snapMagic)+frameHead)
	if _, err := f.ReadAt(hdr, 0); err != nil || string(hdr[:len(snapMagic)]) != snapMagic {
		f.Close()
		return nil, "", fmt.Errorf("store: snapshot %s: bad header", snapName(lsn))
	}
	return f, fmt.Sprintf("%016x-%08x", lsn, binary.BigEndian.Uint32(hdr[len(hdr)-4:])), nil
}

// XferProgress reports the importer's resumable position: the session
// and offset of an interrupted inbound transfer, loaded from the
// durable record if this store was reopened mid-transfer. ok is false
// when no transfer is in progress.
func (s *Store) XferProgress() (session string, offset int64, ok bool) {
	s.xferMu.Lock()
	defer s.xferMu.Unlock()
	p, err := s.loadXferProgressLocked()
	if err != nil || p == nil {
		return "", 0, false
	}
	return p.Session, p.Offset, true
}

// ErrXferBehind reports a completed transfer session whose snapshot
// LSN is below the importer's own: installing it would roll back
// frames applied since the session opened. The progress record is
// retired, so the next pull opens a fresh session.
var ErrXferBehind = errors.New("store: xfer session is below the local lsn")

// ImportChunk folds one received chunk into the in-progress transfer
// and returns the next offset the sender should ship. A session the
// importer has never seen restarts the part file (only from offset
// zero — anything else answers with the offset it actually needs); a
// chunk at the wrong offset is not an error, the returned offset just
// rewinds or fast-forwards the sender. When the final byte lands the
// part file is installed (see installXferLocked) and the progress
// record is retired. complete is true only after that install.
// replace says the caller is replacing the store wholesale (a dirty
// replica discarding an unreplicated tail); only then may the install
// land below the store's own LSN, otherwise it fails with
// ErrXferBehind.
func (s *Store) ImportChunk(ctx context.Context, c XferChunk, replace bool) (next int64, complete bool, err error) {
	if err := faultinject.Fire("repl.xfer.chunk"); err != nil {
		return 0, false, err
	}
	if crc32.Checksum(c.Data, castagnoli) != c.CRC {
		return 0, false, fmt.Errorf("store: xfer chunk at %d: crc mismatch", c.Offset)
	}
	if c.Total < 0 || c.Total > int64(xferMaxTotal) || c.Offset < 0 || c.Offset+int64(len(c.Data)) > c.Total {
		return 0, false, fmt.Errorf("store: xfer chunk at %d/%d with %d bytes: out of bounds", c.Offset, c.Total, len(c.Data))
	}

	s.xferMu.Lock()
	defer s.xferMu.Unlock()
	p, err := s.loadXferProgressLocked()
	if err != nil {
		// A corrupt progress record never resumes a guessed transfer:
		// drop it and restart the session from zero.
		s.clearXferLocked()
		p = nil
	}
	if p == nil || p.Session != c.Session {
		if c.Offset != 0 {
			return 0, false, nil // unknown session: ship me byte zero first
		}
		if err := os.WriteFile(filepath.Join(s.dir, xferPartName), nil, 0o644); err != nil {
			return 0, false, fmt.Errorf("store: xfer part reset: %w", err)
		}
		p = &xferProgress{Version: 1, Session: c.Session, LSN: c.LSN, Total: c.Total}
	}
	if c.LSN != p.LSN || c.Total != p.Total {
		// The sender's session mutated under us; restart cleanly next call.
		s.clearXferLocked()
		return 0, false, fmt.Errorf("store: xfer session %s changed shape mid-transfer", c.Session)
	}
	if c.Offset != p.Offset {
		return p.Offset, false, nil // rewind (or fast-forward) the sender
	}

	if len(c.Data) > 0 {
		if err := s.appendXferPartLocked(p, c.Data); err != nil {
			return 0, false, err
		}
		p.Offset += int64(len(c.Data))
		if err := s.saveXferProgressLocked(*p); err != nil {
			return 0, false, err
		}
		s.xferIn = p
		s.m.Add("store.xfer.chunks_applied", 1)
	}
	if p.Offset < p.Total {
		return p.Offset, false, nil
	}
	err = s.installXferLocked(ctx, p.LSN, replace)
	s.clearXferLocked()
	if err != nil {
		return 0, false, err
	}
	s.m.Add("store.xfer.installs", 1)
	return p.Total, true, nil
}

// installXferLocked replaces this store's entire contents with the
// received part file: the catch-up path for a replica too far behind
// for frame shipping, and the reset path for a fenced ex-primary
// rejoining under a newer epoch. loadSnapshot verifies the file exactly
// as recovery would; the rename to snap-<lsn>.xcsnap is the commit
// point. A failure before it leaves the store serving its old state,
// and so does an lsn below the store's own unless replace is set: the
// check runs under s.mu, so no frame applied meanwhile is rolled back.
// The kept WAL segment belongs to the history being replaced, so it is
// deleted, durably, before the rename: recovery can never replay it
// over the installed snapshot. After the rename, wal.log, whose history
// no longer describes this state, is reset and every snapshot past lsn
// removed (recovery loads the newest one); a failure there fail-stops
// the store, since memory and disk would otherwise disagree about
// acknowledged state. The caller holds xferMu.
func (s *Store) installXferLocked(ctx context.Context, lsn uint64, replace bool) error {
	sp := span.FromContext(ctx).Child("store.repl.import")
	defer sp.End()
	sp.Set("lsn", lsn)
	part := filepath.Join(s.dir, xferPartName)
	snapLSN, docs, err := loadSnapshot(part, s.opts.Limits)
	if err == nil && snapLSN != lsn {
		err = fmt.Errorf("store: xfer snapshot at lsn %d, session at lsn %d", snapLSN, lsn)
	}
	if err == nil {
		err = faultinject.Fire("store.xfer.install")
	}
	if err != nil {
		sp.Fail(err)
		return err
	}
	sp.Set("docs", len(docs))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		sp.Fail(ErrClosed)
		return ErrClosed
	}
	if !replace && lsn < s.lsn {
		err := fmt.Errorf("%w: session at lsn %d, store at %d", ErrXferBehind, lsn, s.lsn)
		sp.Fail(err)
		return err
	}
	if err := s.w.dropKept(); err != nil {
		sp.Fail(err)
		return err
	}
	if err := os.Rename(part, filepath.Join(s.dir, snapName(lsn))); err != nil {
		err = fmt.Errorf("store: xfer publish snapshot: %w", err)
		sp.Fail(err)
		return err
	}
	s.docs = docs
	s.advanceLSNLocked(lsn)
	s.sinceSnap = 0
	s.m.Gauge("store.docs").Set(int64(len(docs)))
	err = syncDir(s.dir)
	if err == nil {
		err = s.w.reset(lsn)
	}
	if err == nil {
		// A deposed primary may hold snapshots past the imported LSN.
		err = removeSnapshotsAbove(s.dir, lsn)
	}
	if err != nil {
		s.stopLocked()
		err = fmt.Errorf("store: xfer install, store fail-stopped: %w", err)
		sp.Fail(err)
		return err
	}
	pruneSnapshots(s.dir, keepSnapshots, lsn, s.m)
	return nil
}

// appendXferPartLocked appends verified chunk bytes durably. The part
// file may be longer than the recorded offset after a crash between
// the append and the progress publish; truncating to the recorded
// offset first keeps the two in lockstep.
func (s *Store) appendXferPartLocked(p *xferProgress, data []byte) error {
	path := filepath.Join(s.dir, xferPartName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: xfer open part: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(p.Offset); err != nil {
		return fmt.Errorf("store: xfer truncate part: %w", err)
	}
	if _, err := f.WriteAt(data, p.Offset); err != nil {
		return fmt.Errorf("store: xfer append part: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: xfer sync part: %w", err)
	}
	return nil
}

// loadXferProgressLocked reads the durable resume record, preferring
// the in-memory copy. nil with nil error means no transfer is in
// progress.
func (s *Store) loadXferProgressLocked() (*xferProgress, error) {
	if s.xferIn != nil {
		return s.xferIn, nil
	}
	b, err := os.ReadFile(filepath.Join(s.dir, xferProgressName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: xfer read progress: %w", err)
	}
	var p xferProgress
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("store: xfer progress corrupt: %w", err)
	}
	if p.Version != 1 || p.Session == "" || p.Offset < 0 || p.Offset > p.Total {
		return nil, fmt.Errorf("store: xfer progress structurally invalid")
	}
	s.xferIn = &p
	return &p, nil
}

// saveXferProgressLocked durably publishes the resume record.
func (s *Store) saveXferProgressLocked(p xferProgress) error {
	b, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("store: xfer encode progress: %w", err)
	}
	return PublishFile(s.dir, xferProgressName, append(b, '\n'))
}

// clearXferLocked retires the in-progress transfer's artifacts
// (best-effort: a leftover part file is inert, recovery ignores it).
func (s *Store) clearXferLocked() {
	s.xferIn = nil
	os.Remove(filepath.Join(s.dir, xferProgressName)) //nolint:errcheck // best-effort cleanup
	os.Remove(filepath.Join(s.dir, xferPartName))     //nolint:errcheck // best-effort cleanup
}
