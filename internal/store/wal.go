package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/telemetry/span"
)

// The write-ahead log is two append-only files of one format:
//
//	8 bytes   magic "XCWAL001"
//	repeated  frames: 4-byte big-endian payload length,
//	          4-byte big-endian CRC-32C of the payload,
//	          payload (one JSON-encoded record)
//
// wal.log takes every append. A snapshot rotates it: wal.log becomes
// the kept segment, wal.prev.log, replacing the one kept before, and a
// new wal.log starts empty. So the kept segment holds the records
// between the two newest snapshots, and the two files hold every record
// past the older one: recovery replays them over a fallback snapshot,
// and replication ships them (FramesSincePage). Each segment's records
// are one contiguous run of LSNs, indexed in memory by where each frame
// ends.
//
// A crash can tear wal.log anywhere past the last fsync. Recovery
// scans frames front to back and stops at the first one that is
// incomplete or fails its checksum; everything from there on is the
// torn tail and is truncated away. Within the valid prefix, record
// LSNs must be strictly increasing — a regression is treated as
// corruption, not reordered history. The kept segment is read the same
// way but never cut.

const (
	walMagic  = "XCWAL001"
	walName   = "wal.log"
	keptName  = "wal.prev.log"
	frameHead = 8 // 4-byte length + 4-byte CRC
	// maxRecordBytes bounds a frame's payload length, enforced on both
	// sides of the disk: Append and writeSnapshot refuse to produce a
	// larger frame, so on the read side anything larger is a corrupt
	// length field, not a believable record.
	maxRecordBytes = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// record is one durable log entry. Digest is the AHU digest of the
// document after the record's effect; recovery re-verifies it after
// replaying the record, so checksummed-but-wrong replays cannot slip
// through.
type record struct {
	LSN     uint64 `json:"lsn"`
	Type    string `json:"type"` // "create", "update", or "drop"
	Doc     string `json:"doc"`
	XML     string `json:"xml,omitempty"`     // create: the initial document
	Kind    string `json:"kind,omitempty"`    // update: "insert" or "delete"
	Pattern string `json:"pattern,omitempty"` // update: the operation's XPath
	X       string `json:"x,omitempty"`       // insert: the grafted fragment
	Digest  string `json:"digest,omitempty"`  // AHU digest after applying
}

// encodeFrame wraps a payload in the length+CRC framing.
func encodeFrame(payload []byte) []byte {
	buf := make([]byte, frameHead+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHead:], payload)
	return buf
}

// scanFrames walks the framed region of a WAL (everything after the
// magic) and returns the validated payloads, how many bytes of b they
// occupy, and whether a torn or corrupt tail was found after them.
// Scanning stops at the first incomplete frame, implausible length, or
// checksum mismatch: bytes past that point are unreachable history.
func scanFrames(b []byte) (payloads [][]byte, used int, torn bool) {
	off := 0
	for off < len(b) {
		if len(b)-off < frameHead {
			return payloads, off, true
		}
		n := int(binary.BigEndian.Uint32(b[off : off+4]))
		if n == 0 || n > maxRecordBytes || n > len(b)-off-frameHead {
			return payloads, off, true
		}
		sum := binary.BigEndian.Uint32(b[off+4 : off+8])
		payload := b[off+frameHead : off+frameHead+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return payloads, off, true
		}
		payloads = append(payloads, payload)
		off += frameHead + n
	}
	return payloads, off, false
}

// FsyncPolicy selects when an append becomes durable.
type FsyncPolicy int

const (
	// FsyncAlways acknowledges a commit only after an fsync that began
	// once its record was written: an acknowledged operation survives
	// any crash. Commits waiting at the same time share one fsync (see
	// waitDurable).
	FsyncAlways FsyncPolicy = iota
	// FsyncNever leaves durability to the OS page cache: fastest, and
	// an acknowledged operation survives a process crash but not a
	// machine crash.
	FsyncNever
)

// String names the policy as it appears in flags ("always", "never").
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// segment is one file of the log and the index of its records: record
// first+i ends at offset ends[i] and begins where the record before it
// ends, or just past the magic.
type segment struct {
	f     *os.File
	first uint64
	ends  []int64
}

// next is the LSN the segment's next record takes.
func (g *segment) next() uint64 { return g.first + uint64(len(g.ends)) }

// end returns where the segment's last record ends, or where its first
// would begin.
func (g *segment) end() int64 {
	if len(g.ends) == 0 {
		return int64(len(walMagic))
	}
	return g.ends[len(g.ends)-1]
}

// holds reports whether the segment indexes record lsn.
func (g *segment) holds(lsn uint64) bool { return lsn >= g.first && lsn < g.next() }

// bounds returns where the frame of record lsn, which g holds, begins
// and ends.
func (g *segment) bounds(lsn uint64) (start, end int64) {
	i := lsn - g.first
	start = int64(len(walMagic))
	if i > 0 {
		start = g.ends[i-1]
	}
	return start, g.ends[i]
}

// wal is the open write-ahead log. Appends are serialized by the
// store's lock; fsyncs run after the appender releases it (waitDurable),
// concurrently with later writes, which os.File allows.
type wal struct {
	path   string
	cur    segment // wal.log: every append lands here
	kept   segment // wal.prev.log; kept.f is nil while none is indexed
	m      *telemetry.Metrics
	policy FsyncPolicy
	off    int64 // current append offset in cur

	// written counts the records appended, under the store's lock;
	// synced counts those made durable, by an fsync, by the snapshot that
	// replaced them, or by Close. Neither ever falls, and synced never
	// passes written. synced is stored under mu; both are read without
	// it.
	written atomic.Uint64
	synced  atomic.Uint64

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when an fsync ends or the log is poisoned
	syncing bool       // an fsync is in flight
	err     error      // sticky: a failed fsync poisons the log
}

// openWAL opens (or creates) the log file, validates the magic, scans
// the existing frames, truncates any torn tail, and returns the valid
// payloads for replay. tornTail reports whether a tail was cut.
func openWAL(path string, policy FsyncPolicy, m *telemetry.Metrics) (w *wal, payloads [][]byte, tornTail bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, false, fmt.Errorf("store: open wal: %w", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, false, fmt.Errorf("store: read wal: %w", err)
	}
	switch {
	case len(b) == 0:
		// Fresh log: stamp the magic durably before any record.
		if _, err := f.Write([]byte(walMagic)); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("store: init wal: %w", err)
		}
		b = []byte(walMagic)
	case len(b) < len(walMagic):
		// A crash tore the file mid-creation: nothing durable was ever
		// acknowledged from it, so reset to a fresh log.
		tornTail = true
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("store: reset torn wal header: %w", err)
		}
		if _, err := f.Write([]byte(walMagic)); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("store: init wal: %w", err)
		}
		b = []byte(walMagic)
	case string(b[:len(walMagic)]) != walMagic:
		f.Close()
		return nil, nil, false, fmt.Errorf("store: %s is not a WAL (bad magic)", path)
	}

	payloads, used, torn := scanFrames(b[len(walMagic):])
	good := int64(len(walMagic) + used)
	if torn {
		tornTail = true
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, nil, false, fmt.Errorf("store: seek wal: %w", err)
	}

	w = &wal{path: path, cur: segment{f: f}, m: m, policy: policy, off: good}
	w.cond = sync.NewCond(&w.mu)
	return w, payloads, tornTail, nil
}

// openKept opens the kept segment next to wal.log, if there is one, and
// returns its valid payloads: those before the first torn or corrupt
// frame, which stay on disk. A file without the magic reads as empty.
// Nothing is indexed until the store has replayed the payloads.
func (w *wal) openKept() ([][]byte, error) {
	path := filepath.Join(filepath.Dir(w.path), keptName)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read kept wal segment: %w", err)
	}
	if len(b) < len(walMagic) || string(b[:len(walMagic)]) != walMagic {
		return nil, nil
	}
	if w.kept.f, err = os.Open(path); err != nil {
		return nil, fmt.Errorf("store: open kept wal segment: %w", err)
	}
	payloads, _, _ := scanFrames(b[len(walMagic):])
	return payloads, nil
}

// Append writes one framed record, the one the log's index expects next
// (cur.next()), and returns its position n in the log. Under FsyncAlways the caller must pass n, or a later position
// such as pending's, to waitDurable after releasing the store lock, and
// acknowledge nothing before that returns; under FsyncNever n is 0 and
// nothing waits.
//
// Fault-injection sites, in write order: "store.append" before anything
// touches the file, and "store.append.partial" between the frame header
// and the payload (a panic here leaves a torn record, exactly what a
// crash mid-write does).
func (w *wal) Append(payload []byte) (n uint64, err error) {
	w.mu.Lock()
	sticky := w.err
	w.mu.Unlock()
	if sticky != nil {
		return 0, fmt.Errorf("store: wal poisoned by earlier fsync failure: %w", sticky)
	}
	// Refuse, before anything touches the file, any record the recovery
	// scan would reject as corrupt: writing it would acknowledge a
	// commit that is durable but unreadable on restart.
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("store: wal append: record payload %d bytes exceeds the %d-byte frame limit", len(payload), maxRecordBytes)
	}
	if err := faultinject.Fire("store.append"); err != nil {
		return 0, err
	}
	start := w.off
	frame := encodeFrame(payload)
	if _, err := w.cur.f.Write(frame[:frameHead]); err != nil {
		w.rollback(start)
		return 0, fmt.Errorf("store: wal append: %w", err)
	}
	// A fault here models a crash between the header and payload
	// reaching the file: the record is torn and recovery must cut it.
	if err := faultinject.Fire("store.append.partial"); err != nil {
		w.rollback(start)
		return 0, err
	}
	if _, err := w.cur.f.Write(frame[frameHead:]); err != nil {
		w.rollback(start)
		return 0, fmt.Errorf("store: wal append: %w", err)
	}
	w.off = start + int64(len(frame))
	w.cur.ends = append(w.cur.ends, w.off)
	w.m.Add("store.appends", 1)
	if w.policy == FsyncNever {
		return 0, nil
	}
	return w.written.Add(1), nil
}

// pending returns the position a reply must wait for before it reveals
// what has been written so far: the last record written, or 0 when all
// of it is durable already or nothing ever waits (FsyncNever). The
// caller holds the store's lock.
func (w *wal) pending() uint64 {
	if w.policy == FsyncNever {
		return 0
	}
	if n := w.written.Load(); n > w.synced.Load() {
		return n
	}
	return 0
}

// waitDurable returns once record n is durable: an fsync that began
// after it was written has completed. If no fsync is in flight the
// caller issues one itself, covering every record written so far;
// otherwise it waits for the one in flight and, if that began too
// early, for the next. This is leader/follower group commit: commits
// that wait together share one fsync. The error is non-nil when the log
// is poisoned before record n became durable. sp is the caller's
// "store.ack" span; a leader times its fsync under it.
func (w *wal) waitDurable(n uint64, sp *span.Span) error {
	w.mu.Lock()
	for w.synced.Load() < n && w.err == nil {
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		target := w.written.Load()
		w.mu.Unlock()
		w.sync(target, sp)
		w.mu.Lock()
	}
	var err error
	if w.synced.Load() < n {
		err = fmt.Errorf("store: commit not durable: %w", w.err)
	}
	w.mu.Unlock()
	return err
}

// errSyncPanicked poisons the log when the fsync panics.
var errSyncPanicked = errors.New("store: wal fsync panicked")

// sync performs one fsync, at the "store.fsync" fault site and under a
// "store.fsync" child of sp, and publishes its outcome: records up to
// target become durable, or the failure poisons the log, since the
// records it covered may already be visible and cannot be rolled back
// one by one. The publication is deferred so that a panic at the fsync
// (a crash drill) also poisons the log and wakes every waiter before it
// propagates. The caller has set w.syncing.
func (w *wal) sync(target uint64, sp *span.Span) {
	fsp := sp.Child("store.fsync")
	err := errSyncPanicked
	defer func() {
		fsp.Fail(err)
		fsp.End()
		w.mu.Lock()
		if err != nil {
			if w.err == nil {
				w.err = err
			}
		} else if target > w.synced.Load() {
			w.synced.Store(target)
		}
		w.syncing = false
		w.cond.Broadcast()
		w.mu.Unlock()
	}()
	if err = faultinject.Fire("store.fsync"); err == nil {
		if err = w.cur.f.Sync(); err != nil {
			err = fmt.Errorf("store: wal fsync: %w", err)
		}
	}
}

// rollback undoes an append whose write failed, so the file never
// holds a record the caller was told failed. If even the truncate fails
// the log is poisoned: later appends refuse to run rather than build on
// an unknown tail.
func (w *wal) rollback(to int64) {
	if err := w.cur.f.Truncate(to); err == nil {
		if _, err := w.cur.f.Seek(to, 0); err == nil {
			w.off = to
			return
		}
	}
	w.mu.Lock()
	if w.err == nil {
		w.err = fmt.Errorf("store: wal rollback to %d failed", to)
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// covered counts every record written so far as durable and releases
// the commits waiting for them: a snapshot has durably captured their
// effects.
func (w *wal) covered() {
	w.mu.Lock()
	w.synced.Store(w.written.Load())
	w.cond.Broadcast()
	w.mu.Unlock()
}

// rotate makes wal.log the kept segment, replacing the one kept before,
// and starts a new, empty wal.log, unless nothing was appended since the
// last rotation. Later fsyncs cover only the new file, so every record
// written so far must already be durable: a snapshot rotates once it
// has captured them (covered). The directory is fsynced before the new
// file takes a record, so no acknowledged commit depends on an entry a
// crash could undo. The caller holds the store's lock.
//
// renamed reports that an error stopped the rotation after wal.log was
// renamed: the open file is no longer wal.log, and the store must
// fail-stop. The "store.wal.rotate" fault site sits between that rename
// and the new file's creation; a crash there leaves no wal.log, which
// recovery creates afresh.
func (w *wal) rotate() (renamed bool, err error) {
	if len(w.cur.ends) == 0 {
		return false, nil
	}
	dir := filepath.Dir(w.path)
	if err := os.Rename(w.path, filepath.Join(dir, keptName)); err != nil {
		return false, fmt.Errorf("store: wal rotate: %w", err)
	}
	if err := faultinject.Fire("store.wal.rotate"); err != nil {
		return true, err
	}
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		if _, err = f.Write([]byte(walMagic)); err == nil {
			err = syncDir(dir)
		}
		if err != nil {
			f.Close()
		}
	}
	if err != nil {
		return true, fmt.Errorf("store: wal rotate: %w", err)
	}
	// An fsync in flight still uses the renamed file: let it finish, so
	// every later one finds the new file.
	w.mu.Lock()
	for w.syncing {
		w.cond.Wait()
	}
	old := w.kept.f
	w.kept = w.cur
	w.cur = segment{f: f, first: w.kept.next()}
	w.off = int64(len(walMagic))
	w.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return false, nil
}

// reset truncates wal.log back to its magic and indexes it from lsn+1:
// a state-transfer install replaced the history its records belong to.
// Every record written so far counts as durable, since the installed
// snapshot supersedes it, and its waiters are released.
func (w *wal) reset(lsn uint64) error {
	good := int64(len(walMagic))
	if err := w.cur.f.Truncate(good); err != nil {
		return fmt.Errorf("store: wal reset: %w", err)
	}
	if _, err := w.cur.f.Seek(good, 0); err != nil {
		return fmt.Errorf("store: wal reset seek: %w", err)
	}
	w.off = good
	w.cur.first, w.cur.ends = lsn+1, nil
	if err := w.cur.f.Sync(); err != nil {
		return fmt.Errorf("store: wal reset fsync: %w", err)
	}
	w.covered()
	return nil
}

// dropKept deletes the kept segment, durably, and forgets its index: a
// state-transfer install is about to replace the history it belongs to,
// and recovery must never replay it over the installed snapshot.
func (w *wal) dropKept() error {
	if w.kept.f != nil {
		w.kept.f.Close()
	}
	w.kept = segment{}
	dir := filepath.Dir(w.path)
	if err := os.Remove(filepath.Join(dir, keptName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: remove kept wal segment: %w", err)
	}
	return syncDir(dir)
}

// oldest returns the LSN of the oldest indexed record; ok is false when
// the log indexes none.
func (w *wal) oldest() (lsn uint64, ok bool) {
	switch {
	case len(w.kept.ends) > 0:
		return w.kept.first, true
	case len(w.cur.ends) > 0:
		return w.cur.first, true
	}
	return 0, false
}

// frames reads the indexed records from lsn on, oldest first, within a
// budget: at most maxFrames frames holding at most maxBytes of payload
// (each ignored when <= 0), and always the first. more reports that the
// budget, not the log, ended the page. Each segment's share of the page
// is one read, and every frame in it must have the length the index
// gives it and its checksum. The caller holds the store's lock, so no
// append, rotation or install runs meanwhile.
func (w *wal) frames(lsn uint64, maxFrames, maxBytes int) (frames []ReplFrame, more bool, err error) {
	size := 0
	for _, g := range [...]*segment{&w.kept, &w.cur} {
		if !g.holds(lsn) {
			continue
		}
		from := lsn
		for ; g.holds(lsn); lsn++ {
			start, end := g.bounds(lsn)
			n := int(end-start) - frameHead
			if page := len(frames) + int(lsn-from); page > 0 &&
				((maxFrames > 0 && page >= maxFrames) || (maxBytes > 0 && size+n > maxBytes)) {
				more = true
				break
			}
			size += n
		}
		if lsn > from {
			if frames == nil {
				frames = make([]ReplFrame, 0, lsn-from)
			}
			start, _ := g.bounds(from)
			_, end := g.bounds(lsn - 1)
			buf := make([]byte, end-start)
			if _, err := g.f.ReadAt(buf, start); err != nil {
				return nil, false, fmt.Errorf("store: read wal records %d..%d: %w", from, lsn-1, err)
			}
			for l := from; l < lsn; l++ {
				s, e := g.bounds(l)
				frame := buf[s-start : e-start]
				sum := binary.BigEndian.Uint32(frame[4:8])
				payload := frame[frameHead:]
				if int(binary.BigEndian.Uint32(frame[0:4])) != len(payload) || crc32.Checksum(payload, castagnoli) != sum {
					return nil, false, fmt.Errorf("store: wal record %d: frame does not match its index or checksum", l)
				}
				frames = append(frames, ReplFrame{LSN: l, CRC: sum, Payload: payload})
			}
		}
		if more {
			break
		}
	}
	return frames, more, nil
}

// Close waits for an fsync in flight, fsyncs once more unless the log
// is poisoned or never fsyncs, which releases every waiter still
// pending, and closes both files. The caller holds the store's lock, so
// nothing is written meanwhile and no waiter is left uncovered.
func (w *wal) Close() error {
	w.mu.Lock()
	for w.syncing {
		w.cond.Wait()
	}
	var err error
	if w.policy != FsyncNever && w.err == nil {
		if err = w.cur.f.Sync(); err != nil {
			w.err = fmt.Errorf("store: wal fsync on close: %w", err)
		} else {
			w.synced.Store(w.written.Load())
		}
		w.cond.Broadcast()
	}
	w.mu.Unlock()
	if w.kept.f != nil {
		w.kept.f.Close()
	}
	if cerr := w.cur.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// encodeRecord renders a record as a WAL payload.
func encodeRecord(rec record) ([]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode record: %w", err)
	}
	return b, nil
}

// recordLSN returns a WAL payload's LSN without decoding the rest of
// it: encodeRecord writes the LSN first. A payload of another shape is
// decoded whole. ok is false when the payload holds no LSN.
func recordLSN(payload []byte) (lsn uint64, ok bool) {
	if rest, found := bytes.CutPrefix(payload, []byte(`{"lsn":`)); found {
		i := 0
		for ; i < len(rest) && i < 19 && rest[i] >= '0' && rest[i] <= '9'; i++ {
			lsn = lsn*10 + uint64(rest[i]-'0')
		}
		if i > 0 && i < len(rest) && rest[i] == ',' {
			return lsn, lsn != 0
		}
	}
	rec, err := decodeRecord(payload)
	return rec.LSN, err == nil && rec.LSN != 0
}

// decodeRecord parses a WAL payload.
func decodeRecord(payload []byte) (record, error) {
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("store: decode record: %w", err)
	}
	return rec, nil
}
