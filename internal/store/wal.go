package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/telemetry/span"
)

// The write-ahead log is a single append-only file:
//
//	8 bytes   magic "XCWAL001"
//	repeated  frames: 4-byte big-endian payload length,
//	          4-byte big-endian CRC-32C of the payload,
//	          payload (one JSON-encoded record)
//
// A crash can tear the file anywhere past the last fsync. Recovery
// scans frames front to back and stops at the first one that is
// incomplete or fails its checksum; everything from there on is the
// torn tail and is truncated away. Within the valid prefix, record
// LSNs must be strictly increasing — a regression is treated as
// corruption, not reordered history.

const (
	walMagic  = "XCWAL001"
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
	// FsyncAlways fsyncs before every commit is acknowledged: an
	// acknowledged operation survives any crash.
	FsyncAlways FsyncPolicy = iota
	// FsyncGroup acknowledges commits after the next group fsync (the
	// classic group-commit trade: bounded data loss, amortized fsyncs).
	FsyncGroup
	// FsyncNever leaves durability to the OS page cache: fastest, and
	// an acknowledged operation survives a process crash but not a
	// machine crash.
	FsyncNever
)

// String names the policy as it appears in flags ("always", "group",
// "never").
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncGroup:
		return "group"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// wal is the open write-ahead log. Appends are serialized by the
// store's lock; the group-commit flusher only ever calls Sync, which is
// safe concurrently with writes.
type wal struct {
	path   string
	f      *os.File
	m      *telemetry.Metrics
	policy FsyncPolicy
	every  time.Duration
	off    int64 // current append offset

	mu       sync.Mutex
	cond     *sync.Cond
	writeGen uint64 // generation of the latest completed write
	flushGen uint64 // generation covered by the latest fsync
	err      error  // sticky: a failed group fsync poisons the log
	stop     chan struct{}
	done     chan struct{}
}

// openWAL opens (or creates) the log file, validates the magic, scans
// the existing frames, truncates any torn tail, and returns the valid
// payloads for replay. tornTail reports whether a tail was cut.
func openWAL(path string, policy FsyncPolicy, every time.Duration, m *telemetry.Metrics) (w *wal, payloads [][]byte, tornTail bool, err error) {
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

	w = &wal{path: path, f: f, m: m, policy: policy, every: every, off: good}
	w.cond = sync.NewCond(&w.mu)
	if policy == FsyncGroup {
		if w.every <= 0 {
			w.every = 5 * time.Millisecond
		}
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.flusher()
	}
	return w, payloads, tornTail, nil
}

// Append writes one framed record. The returned ack is non-nil only
// under FsyncGroup: the caller must invoke it (after releasing the
// store lock) and treat its error as a failed commit. Under FsyncAlways
// the record is durable — or rolled back — before Append returns. sp,
// when non-nil, is the caller's wal-append span; the synchronous fsync
// of FsyncAlways is timed under a "store.fsync" child of it.
//
// Fault-injection sites, in write order: "store.append" before anything
// touches the file, "store.append.partial" between the frame header and
// the payload (a panic here leaves a torn record, exactly what a crash
// mid-write does), and "store.fsync" before the synchronous fsync.
func (w *wal) Append(payload []byte, sp *span.Span) (ack func() error, err error) {
	w.mu.Lock()
	sticky := w.err
	w.mu.Unlock()
	if sticky != nil {
		return nil, fmt.Errorf("store: wal poisoned by earlier fsync failure: %w", sticky)
	}
	// Refuse, before anything touches the file, any record the recovery
	// scan would reject as corrupt: writing it would acknowledge a
	// commit that is durable but unreadable on restart.
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("store: wal append: record payload %d bytes exceeds the %d-byte frame limit", len(payload), maxRecordBytes)
	}
	if err := faultinject.Fire("store.append"); err != nil {
		return nil, err
	}
	start := w.off
	frame := encodeFrame(payload)
	if _, err := w.f.Write(frame[:frameHead]); err != nil {
		w.rollback(start)
		return nil, fmt.Errorf("store: wal append: %w", err)
	}
	// A fault here models a crash between the header and payload
	// reaching the file: the record is torn and recovery must cut it.
	if err := faultinject.Fire("store.append.partial"); err != nil {
		w.rollback(start)
		return nil, err
	}
	if _, err := w.f.Write(frame[frameHead:]); err != nil {
		w.rollback(start)
		return nil, fmt.Errorf("store: wal append: %w", err)
	}
	w.off = start + int64(len(frame))
	w.m.Add("store.appends", 1)

	switch w.policy {
	case FsyncAlways:
		fsp := sp.Child("store.fsync")
		if err := w.syncNow(); err != nil {
			fsp.Fail(err)
			fsp.End()
			w.rollback(start)
			return nil, err
		}
		fsp.End()
		return nil, nil
	case FsyncNever:
		return nil, nil
	}
	// Group commit: claim a generation; the ack blocks until a flush
	// covers it.
	w.mu.Lock()
	w.writeGen++
	gen := w.writeGen
	w.mu.Unlock()
	return func() error { return w.waitFlushed(gen) }, nil
}

// syncNow performs one fault-injectable fsync. Its caller times it: the
// "store.fsync" span of an FsyncAlways append, or the group flush's
// timer.
func (w *wal) syncNow() error {
	if err := faultinject.Fire("store.fsync"); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal fsync: %w", err)
	}
	return nil
}

// rollback undoes an append whose write or fsync failed, so the file
// never holds a record the caller was told failed. If even the
// truncate fails the log is poisoned: later appends refuse to run
// rather than build on an unknown tail.
func (w *wal) rollback(to int64) {
	if err := w.f.Truncate(to); err == nil {
		if _, err := w.f.Seek(to, 0); err == nil {
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

// waitFlushed blocks until a group fsync covers gen, the log is
// poisoned, or the flusher exits.
func (w *wal) waitFlushed(gen uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.flushGen < gen && w.err == nil {
		w.cond.Wait()
	}
	if w.err != nil && w.flushGen < gen {
		return fmt.Errorf("store: group commit lost: %w", w.err)
	}
	return nil
}

// flusher is the group-commit loop: every interval, if new writes
// landed since the last fsync, fsync once and wake every waiter the
// flush covers. An fsync failure poisons the log — the affected writes
// cannot be individually rolled back.
func (w *wal) flusher() {
	defer close(w.done)
	tick := time.NewTicker(w.every)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			w.flushOnce()
			return
		case <-tick.C:
			w.flushOnce()
		}
	}
}

func (w *wal) flushOnce() {
	w.mu.Lock()
	target := w.writeGen
	already := w.flushGen
	poisoned := w.err != nil
	w.mu.Unlock()
	if target == already || poisoned {
		return
	}
	// The group fsync runs outside every request trace, so no span
	// covers it: it is timed here instead.
	stop := w.m.Timer("store.fsync").Start()
	err := w.syncNow()
	stop()
	w.mu.Lock()
	if err != nil {
		if w.err == nil {
			w.err = err
		}
	} else if w.flushGen < target {
		w.flushGen = target
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// markAllFlushed reports every outstanding write durable without an
// fsync of the log itself — the snapshot that was just fsynced carries
// their effects, so pending group-commit waiters may be acknowledged.
func (w *wal) markAllFlushed() {
	w.mu.Lock()
	if w.flushGen < w.writeGen {
		w.flushGen = w.writeGen
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// reset truncates the log back to just its magic, dropping every
// record. Called after a snapshot has durably captured their effects.
func (w *wal) reset() error {
	good := int64(len(walMagic))
	if err := w.f.Truncate(good); err != nil {
		return fmt.Errorf("store: wal reset: %w", err)
	}
	if _, err := w.f.Seek(good, 0); err != nil {
		return fmt.Errorf("store: wal reset seek: %w", err)
	}
	w.off = good
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal reset fsync: %w", err)
	}
	w.markAllFlushed()
	return nil
}

// Close stops the flusher (flushing once more on the way out), fsyncs
// under FsyncAlways/FsyncGroup, and closes the file.
func (w *wal) Close() error {
	if w.stop != nil {
		close(w.stop)
		<-w.done
	}
	var err error
	if w.policy != FsyncNever {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
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

// decodeRecord parses a WAL payload.
func decodeRecord(payload []byte) (record, error) {
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("store: decode record: %w", err)
	}
	return rec, nil
}
