package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"

	"xmlconflict/internal/telemetry/span"
)

// Replication support: a store can export the committed WAL frames past
// an LSN (the primary side of log shipping) and apply frames produced
// elsewhere (the backup side), with the same verify-then-commit
// discipline the live path and recovery use. Frames are read from the
// WAL files themselves, the kept segment and wal.log, so the shipping
// horizon is every record past the older of the two newest snapshots,
// and it survives a restart. Frames carry the exact payload bytes of
// the primary's WAL plus their CRC-32C, so a backup re-verifies the
// checksum on receipt, re-applies the record through the normal
// mutation path, and re-checks the AHU digest the record promised —
// byte corruption in flight, on either disk, or a divergent replica all
// surface as hard errors, never silent skew.

// ReplFrame is one committed WAL record in transit between replicas.
// Payload is the record's exact WAL payload bytes; CRC is their
// CRC-32C, verified again by the receiver before anything is applied.
type ReplFrame struct {
	LSN     uint64 `json:"lsn"`
	CRC     uint32 `json:"crc"`
	Payload []byte `json:"payload"`
}

// ErrReplGap reports that ApplyFrames was handed a frame that does not
// extend the local log contiguously: the shipper must back up and
// re-send from the receiver's actual LSN (or, past its retained log,
// wait for the receiver to pull full state).
var ErrReplGap = errors.New("store: replication frame gap")

// ErrReplDiverged reports that a shipped frame overlaps the local log
// at an LSN this store has already committed, but with different
// content (or content its retained log can no longer verify). The
// receiver does not hold the sender's write at that LSN — it holds
// something else — and must resync wholesale rather than let the
// sender treat it as replicated.
var ErrReplDiverged = errors.New("store: replicated frame diverges from the local log")

// FramesSince is FramesSincePage without a budget: every retained frame
// past after.
func (s *Store) FramesSince(after uint64) (frames []ReplFrame, ok bool, err error) {
	frames, _, ok, err = s.FramesSincePage(after, 0, 0)
	return frames, ok, err
}

// FramesSincePage returns the committed frames with LSN > after, oldest
// first, read from the WAL files, within a response budget: at most
// maxFrames frames totalling at most maxBytes of payload (both ignored
// when <= 0; the first frame always fits, so progress is guaranteed).
// more is true when budget — not the log — ended the page, and the
// caller should come back for the rest. ok is false when the retained
// log no longer reaches back to after+1 — the reader must fall back to
// full-state transfer — and the page then starts at the oldest retained
// frame instead. An up-to-date peer (after >= current LSN) gets an
// empty page and ok=true. A closed store answers ErrClosed, and a
// failed read its error: never an empty page.
func (s *Store) FramesSincePage(after uint64, maxFrames, maxBytes int) (frames []ReplFrame, more, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, false, ErrClosed
	}
	if after >= s.lsn {
		return nil, false, true, nil
	}
	oldest, retained := s.w.oldest()
	if !retained {
		return nil, false, false, nil
	}
	frames, more, err = s.w.frames(max(after+1, oldest), maxFrames, maxBytes)
	if err != nil {
		return nil, false, false, err
	}
	return frames, more, oldest <= after+1, nil
}

// ApplyFrames applies replicated frames to this store in order and
// returns the verified watermark: the highest shipped LSN this store
// positively holds — applied now, or proven byte-identical to the
// already-committed local record. Each frame is CRC-verified, decoded,
// checked for contiguity (a frame at or below the current LSN must
// match the retained local record, else ErrReplDiverged; a gap fails
// with ErrReplGap carrying nothing applied beyond the contiguous
// prefix, and the returned LSN rewinds the sender), verified to apply
// cleanly with the promised digest, and only then durably appended to
// the local WAL and committed in memory — the same never-acknowledge-
// what-recovery-cannot-read-back ordering the live path uses.
//
// The watermark is what makes the sender's ack accounting honest: a
// store whose log is AHEAD of the shipped frames with different
// content errors instead of claiming the sender's LSNs, so a diverged
// peer can never satisfy an ack quorum for writes it never received.
//
// verifiedFloor is the caller's provenance bound: LSNs at or below it
// are known to match the sender's log by construction (this store's
// state was imported wholesale from that primary's own export, which
// also emptied the local log), so overlaps there verify without
// retained frames. Pass 0 when no such import backs the stream.
func (s *Store) ApplyFrames(ctx context.Context, frames []ReplFrame, verifiedFloor uint64) (uint64, error) {
	sp := span.FromContext(ctx).Child("store.repl.apply")
	if sp != nil {
		sp.Set("frames", len(frames))
		defer sp.End()
	}

	s.mu.Lock()
	locked := true
	defer s.guardCommit(&locked)
	unlock := func() { locked = false; s.mu.Unlock() }
	if s.closed {
		unlock()
		sp.Fail(ErrClosed)
		return 0, ErrClosed
	}
	var last uint64 // log position of the last frame appended
	applied := 0
	var wm uint64 // highest LSN positively verified or applied this call
	var ferr error
	for _, f := range frames {
		if f.LSN <= s.lsn {
			// A duplicate re-ship is only acceptable when the local log
			// provably holds the same record — by import provenance below
			// the floor, or byte-identity against the retained log.
			// Skipping unverified would let a peer that is ahead with
			// DIFFERENT content pass as holding writes it never saw.
			if f.LSN > verifiedFloor {
				if err := s.verifyOverlapLocked(f); err != nil {
					ferr = err
					break
				}
			}
			wm = f.LSN
			continue
		}
		if crc32.Checksum(f.Payload, castagnoli) != f.CRC {
			ferr = fmt.Errorf("store: repl frame lsn %d: crc mismatch", f.LSN)
			break
		}
		rec, err := decodeRecord(f.Payload)
		if err != nil {
			ferr = fmt.Errorf("store: repl frame lsn %d: %w", f.LSN, err)
			break
		}
		if rec.LSN != f.LSN {
			ferr = fmt.Errorf("store: repl frame lsn %d: payload claims lsn %d", f.LSN, rec.LSN)
			break
		}
		if rec.LSN != s.lsn+1 {
			ferr = fmt.Errorf("store: repl frame lsn %d does not extend local lsn %d: %w", rec.LSN, s.lsn, ErrReplGap)
			break
		}
		// Verify the record applies cleanly (and reproduces its digest)
		// before any byte reaches the local WAL.
		prep, err := s.prepareReplayed(rec)
		if err != nil {
			ferr = fmt.Errorf("store: repl frame lsn %d: %w", rec.LSN, err)
			break
		}
		n, err := s.w.Append(f.Payload)
		if err != nil {
			ferr = err
			break
		}
		last = n
		prep()
		s.advanceLSNLocked(rec.LSN)
		wm = rec.LSN
		s.m.Add("store.repl.applied", 1)
		applied++
		s.maybeSnapshotLocked()
	}
	lsn := wm
	if lsn == 0 {
		// Nothing verified this call (empty frames, or a gap at the first
		// frame): report the local position so a gapped sender rewinds.
		lsn = s.lsn
	}
	s.m.Gauge("store.docs").Set(int64(len(s.docs)))
	unlock()

	if sp != nil {
		sp.Set("applied", applied)
		sp.Set("lsn", lsn)
	}
	// One wait covers every append above: a record is durable once an
	// fsync covers a log prefix that holds it.
	if err := s.awaitDurable(last, sp); err != nil {
		return lsn, err
	}
	if ferr != nil {
		sp.Fail(ferr)
	}
	return lsn, ferr
}

// verifyOverlapLocked checks a shipped frame at or below the current
// LSN against the local record in the retained log. nil means the two
// are byte-identical — a true duplicate re-ship. Different content, or a
// frame older than the retained log, is ErrReplDiverged: this store
// cannot prove it holds the sender's write, so it must not be counted
// as holding it. A failed read is an error of its own. The caller holds
// s.mu.
func (s *Store) verifyOverlapLocked(f ReplFrame) error {
	local, _, err := s.w.frames(f.LSN, 1, 0)
	switch {
	case err != nil:
		return err
	case len(local) == 0:
		return fmt.Errorf("store: repl frame lsn %d at or below local lsn %d is not retained for verification: %w",
			f.LSN, s.lsn, ErrReplDiverged)
	case !bytes.Equal(local[0].Payload, f.Payload):
		return fmt.Errorf("store: repl frame lsn %d: local log holds different content (local crc %08x, shipped %08x): %w",
			f.LSN, local[0].CRC, f.CRC, ErrReplDiverged)
	}
	return nil
}
