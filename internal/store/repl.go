package store

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"

	"xmlconflict/internal/telemetry/span"
)

// Replication support: a store can export the committed WAL frames past
// an LSN (the primary side of log shipping) and apply frames produced
// elsewhere (the backup side), with the same verify-then-commit
// discipline the live path and recovery use. Frames carry the exact
// payload bytes that hit the primary's WAL plus their CRC-32C, so a
// backup re-verifies the checksum on receipt, re-applies the record
// through the normal mutation path, and re-checks the AHU digest the
// record promised — byte corruption in flight, on either disk, or a
// divergent replica all surface as hard errors, never silent skew.

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
// re-send from the receiver's actual LSN (or fall back to full-state
// transfer).
var ErrReplGap = errors.New("store: replication frame gap")

// ErrReplDiverged reports that a shipped frame overlaps the local log
// at an LSN this store has already committed, but with different
// content (or content the bounded frame log can no longer verify). The
// receiver does not hold the sender's write at that LSN — it holds
// something else — and must resync wholesale rather than let the
// sender treat it as replicated.
var ErrReplDiverged = errors.New("store: replicated frame diverges from the local log")

// State is a full-store transfer unit: every document's canonical
// serialization and digest at one LSN. It is the anti-entropy fallback
// when the in-memory frame log no longer reaches back far enough.
type State struct {
	LSN  uint64     `json:"lsn"`
	Docs []StateDoc `json:"docs"`
}

// StateDoc is one document inside a State.
type StateDoc struct {
	ID     string `json:"id"`
	LSN    uint64 `json:"lsn"`
	XML    string `json:"xml"`
	Digest string `json:"digest"`
}

// pushReplFrame retains a just-committed record for shipping; the
// caller holds s.mu. The log is bounded: once it exceeds the configured
// buffer, the oldest frames fall off and lagging peers must catch up by
// full-state transfer instead.
func (s *Store) pushReplFrame(lsn uint64, payload []byte) {
	if s.opts.ReplBuffer <= 0 {
		return
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	s.replLog = append(s.replLog, ReplFrame{
		LSN:     lsn,
		CRC:     crc32.Checksum(cp, castagnoli),
		Payload: cp,
	})
	if excess := len(s.replLog) - s.opts.ReplBuffer; excess > 0 {
		s.replLog = append([]ReplFrame(nil), s.replLog[excess:]...)
	}
}

// FramesSince returns the committed frames with LSN > after, oldest
// first. ok is false when the bounded frame log no longer reaches back
// to after+1 — the caller must fall back to full-state transfer. An
// up-to-date peer (after >= current LSN) gets an empty slice and
// ok=true.
func (s *Store) FramesSince(after uint64) (frames []ReplFrame, ok bool) {
	frames, _, ok = s.FramesSincePage(after, 0, 0)
	return frames, ok
}

// FramesSincePage is FramesSince with a response budget: at most
// maxFrames frames totalling at most maxBytes of payload (both
// ignored when <= 0; the first frame always fits, so progress is
// guaranteed). more is true when budget — not the log — ended the
// page, and the caller should come back for the rest.
func (s *Store) FramesSincePage(after uint64, maxFrames, maxBytes int) (frames []ReplFrame, more, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if after >= s.lsn {
		return nil, false, true
	}
	if len(s.replLog) == 0 || s.replLog[0].LSN > after+1 {
		return nil, false, false
	}
	bytes := 0
	for _, f := range s.replLog {
		if f.LSN <= after {
			continue
		}
		if len(frames) > 0 &&
			((maxFrames > 0 && len(frames) >= maxFrames) ||
				(maxBytes > 0 && bytes+len(f.Payload) > maxBytes)) {
			return frames, true, true
		}
		frames = append(frames, f)
		bytes += len(f.Payload)
	}
	return frames, false, true
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
// also cleared the frame log), so overlaps there verify without
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
	var lastAck func() error
	applied := 0
	var wm uint64 // highest LSN positively verified or applied this call
	var ferr error
	for _, f := range frames {
		if f.LSN <= s.lsn {
			// A duplicate re-ship is only acceptable when the local log
			// provably holds the same record — by import provenance below
			// the floor, or byte-identity against the retained frame log.
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
		ack, err := s.w.Append(f.Payload, sp)
		if err != nil {
			ferr = err
			break
		}
		if ack != nil {
			lastAck = ack
		}
		prep()
		s.advanceLSNLocked(rec.LSN)
		wm = rec.LSN
		s.pushReplFrame(rec.LSN, f.Payload)
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
	// Group-commit: one wait covers every append above (flush
	// generations are monotone).
	if err := s.awaitAck(lastAck, sp); err != nil {
		return lsn, err
	}
	if ferr != nil {
		sp.Fail(ferr)
	}
	return lsn, ferr
}

// verifyOverlapLocked checks a shipped frame at or below the current
// LSN against the retained local frame log (rebuilt from the WAL on
// recovery, so restarts keep it verifiable). nil means the local record
// is byte-identical — a true duplicate re-ship. Different content, or a
// frame too old for the bounded log to check, is ErrReplDiverged: this
// store cannot prove it holds the sender's write, so it must not be
// counted as holding it. The caller holds s.mu.
func (s *Store) verifyOverlapLocked(f ReplFrame) error {
	if len(s.replLog) > 0 && f.LSN >= s.replLog[0].LSN {
		if i := int(f.LSN - s.replLog[0].LSN); i < len(s.replLog) {
			local := s.replLog[i]
			if local.LSN == f.LSN && local.CRC == f.CRC && len(local.Payload) == len(f.Payload) {
				return nil
			}
			return fmt.Errorf("store: repl frame lsn %d: local log holds different content (local crc %08x, shipped %08x): %w",
				f.LSN, local.CRC, f.CRC, ErrReplDiverged)
		}
	}
	return fmt.Errorf("store: repl frame lsn %d at or below local lsn %d is not retained for verification: %w",
		f.LSN, s.lsn, ErrReplDiverged)
}

// prepareReplayed validates rec against the current in-memory state and
// returns a commit closure that publishes its effect. Nothing is
// mutated until the closure runs; the caller holds s.mu.
func (s *Store) prepareReplayed(rec record) (func(), error) {
	switch rec.Type {
	case "create":
		if _, ok := s.docs[rec.Doc]; ok {
			return nil, fmt.Errorf("replicated create %q: already exists", rec.Doc)
		}
		t, err := s.parseLimited(rec.XML)
		if err != nil {
			return nil, err
		}
		digest := t.Digest()
		if digest != rec.Digest {
			return nil, fmt.Errorf("replicated create %q: digest mismatch", rec.Doc)
		}
		return func() {
			s.docs[rec.Doc] = &doc{id: rec.Doc, tree: t, lsn: rec.LSN, digest: digest}
		}, nil
	case "update":
		d, ok := s.docs[rec.Doc]
		if !ok {
			return nil, fmt.Errorf("replicated update %q: no such doc", rec.Doc)
		}
		u, _, err := s.parseUpdate(Op{Kind: rec.Kind, Pattern: rec.Pattern, X: rec.X})
		if err != nil {
			return nil, err
		}
		newTree, _, digest, err := applyUpdate(d, u)
		if err != nil {
			return nil, err
		}
		if digest != rec.Digest {
			return nil, fmt.Errorf("replicated update %q lsn %d: digest mismatch (shipped %.12s, applied %.12s)",
				rec.Doc, rec.LSN, rec.Digest, digest)
		}
		return func() { s.commitUpdate(d, rec.LSN, rec.Kind, u, newTree, digest) }, nil
	case "drop":
		if _, ok := s.docs[rec.Doc]; !ok {
			return nil, fmt.Errorf("replicated drop %q: no such doc", rec.Doc)
		}
		return func() { delete(s.docs, rec.Doc) }, nil
	}
	return nil, fmt.Errorf("unknown record type %q", rec.Type)
}

// ExportState captures the whole store for full-state transfer.
func (s *Store) ExportState() (State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return State{}, ErrClosed
	}
	st := State{LSN: s.lsn}
	for _, id := range sortedIDs(s.docs) {
		d := s.docs[id]
		st.Docs = append(st.Docs, StateDoc{ID: id, LSN: d.lsn, XML: d.tree.XML(), Digest: d.digest})
	}
	return st, nil
}

// ImportState replaces this store's entire contents with st: the
// catch-up path for a replica too far behind for frame shipping, and
// the reset path for a fenced ex-primary rejoining under a newer epoch.
// Every document is re-parsed and digest-verified before anything is
// replaced; the new state is then durably snapshotted (truncating the
// WAL, whose history no longer describes this state), and every local
// snapshot at a higher LSN is removed, since recovery loads the newest
// one. A snapshot or removal failure after the in-memory swap
// fail-stops the store — memory and disk would otherwise disagree about
// acknowledged state.
func (s *Store) ImportState(ctx context.Context, st State) error {
	sp := span.FromContext(ctx).Child("store.repl.import")
	if sp != nil {
		sp.Set("docs", len(st.Docs))
		sp.Set("lsn", st.LSN)
		defer sp.End()
	}
	newDocs := make(map[string]*doc, len(st.Docs))
	for _, sd := range st.Docs {
		if sd.LSN > st.LSN {
			err := fmt.Errorf("store: import state: doc %q lsn %d beyond state lsn %d", sd.ID, sd.LSN, st.LSN)
			sp.Fail(err)
			return err
		}
		t, err := s.parseLimited(sd.XML)
		if err != nil {
			err = fmt.Errorf("store: import state: doc %q: %w", sd.ID, err)
			sp.Fail(err)
			return err
		}
		if got := t.Digest(); got != sd.Digest {
			err := fmt.Errorf("store: import state: doc %q digest mismatch (shipped %.12s, parsed %.12s)", sd.ID, sd.Digest, got)
			sp.Fail(err)
			return err
		}
		if _, dup := newDocs[sd.ID]; dup {
			err := fmt.Errorf("store: import state: duplicate doc %q", sd.ID)
			sp.Fail(err)
			return err
		}
		newDocs[sd.ID] = &doc{id: sd.ID, tree: t, lsn: sd.LSN, digest: sd.Digest}
	}

	s.mu.Lock()
	locked := true
	defer s.guardCommit(&locked)
	unlock := func() { locked = false; s.mu.Unlock() }
	if s.closed {
		unlock()
		sp.Fail(ErrClosed)
		return ErrClosed
	}
	s.docs = newDocs
	s.advanceLSNLocked(st.LSN)
	s.replLog = nil
	s.m.Gauge("store.docs").Set(int64(len(s.docs)))
	failStop := func(what string, err error) error {
		// In-memory state no longer matches anything recoverable from
		// disk: refuse to keep serving it.
		s.closed = true
		s.w.Close()
		unlock()
		err = fmt.Errorf("store: import state: %s, store fail-stopped: %w", what, err)
		sp.Fail(err)
		return err
	}
	lsn, err := s.snapshotLocked()
	if err != nil {
		return failStop("snapshot failed", err)
	}
	// A deposed primary may hold snapshots past the imported LSN;
	// recovery would load one of them and resurrect the diverged state.
	if err := removeSnapshotsAbove(s.dir, lsn); err != nil {
		return failStop("removing newer snapshots failed", err)
	}
	s.m.Add("store.repl.imports", 1)
	unlock()
	return nil
}
