package replica

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"xmlconflict/internal/store"
)

// Dynamic membership: the committed cluster roster lives in
// repl-members.json next to the epoch file, versioned by (Epoch, Rev)
// and rewritten with the same temp + fsync + rename discipline. Only
// the primary commits a new revision (join, leave, learner promotion);
// backups adopt pushed revisions that are (a) carried under an epoch
// claim that passes the fence and (b) strictly newer than their own —
// so a deposed primary can neither resurrect a removed peer nor roll a
// committed change back. Quorum arithmetic everywhere reads the
// committed voter set, never the boot-time flag values: a node joins
// as a non-voting learner (it receives frames and heartbeats but
// cannot vote, promote, or count toward an ack quorum) and becomes a
// voter only by a committed membership revision once it has caught up.

// membersFileName holds the persisted membership inside the data dir.
const membersFileName = "repl-members.json"

// Member is one committed cluster member.
type Member struct {
	ID      string `json:"id"`
	URL     string `json:"url"`
	Learner bool   `json:"learner,omitempty"`
}

// memberState is the persisted roster. Epoch is the replication epoch
// the revision was committed under; (Epoch, Rev) orders revisions
// lexicographically, so a revision committed by a deposed primary
// (older epoch, any rev) always loses to the live epoch's roster.
type memberState struct {
	Version int      `json:"version"`
	Epoch   uint64   `json:"epoch"`
	Rev     uint64   `json:"rev"`
	Members []Member `json:"members"`
}

// newer reports whether ms supersedes other.
func (ms memberState) newer(other memberState) bool {
	if ms.Epoch != other.Epoch {
		return ms.Epoch > other.Epoch
	}
	return ms.Rev > other.Rev
}

// find returns the member with the given id.
func (ms memberState) find(id string) (Member, bool) {
	for _, m := range ms.Members {
		if m.ID == id {
			return m, true
		}
	}
	return Member{}, false
}

// voters counts the voting members.
func (ms memberState) voters() int {
	v := 0
	for _, m := range ms.Members {
		if !m.Learner {
			v++
		}
	}
	return v
}

// clone deep-copies the roster so a pending revision can be mutated
// without aliasing the committed one.
func (ms memberState) clone() memberState {
	cp := ms
	cp.Members = append([]Member(nil), ms.Members...)
	return cp
}

// validate rejects structurally broken rosters — the same strictness
// the epoch file gets, for the same reason: a node that guesses its
// membership can miscount a quorum.
func (ms memberState) validate() error {
	if ms.Version != 1 {
		return fmt.Errorf("membership version %d; this build reads version 1", ms.Version)
	}
	if ms.Epoch == 0 || ms.Rev == 0 {
		return fmt.Errorf("membership carries epoch %d rev %d (both start at 1)", ms.Epoch, ms.Rev)
	}
	if len(ms.Members) == 0 {
		return fmt.Errorf("membership names no members")
	}
	seen := map[string]bool{}
	for _, m := range ms.Members {
		if m.ID == "" {
			return fmt.Errorf("membership carries a member with an empty id")
		}
		if seen[m.ID] {
			return fmt.Errorf("membership carries duplicate member id %q", m.ID)
		}
		seen[m.ID] = true
	}
	if ms.voters() == 0 {
		return fmt.Errorf("membership has no voting members")
	}
	return nil
}

// loadMembers reads the persisted roster. A missing file is a fresh
// node (ok=false); anything unparseable or structurally invalid is an
// error, never a silent fresh start.
func loadMembers(dir string) (memberState, bool, error) {
	var ms memberState
	path := filepath.Join(dir, membersFileName)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return ms, false, nil
	}
	if err != nil {
		return ms, false, fmt.Errorf("replica: read %s: %w", membersFileName, err)
	}
	if err := json.Unmarshal(b, &ms); err != nil {
		return ms, false, fmt.Errorf("replica: %s is corrupt or half-written (%v); refusing to rejoin under a guessed membership — restore the file or remove it to re-init the node", membersFileName, err)
	}
	if err := ms.validate(); err != nil {
		return ms, false, fmt.Errorf("replica: %s: %v; the file is corrupt", membersFileName, err)
	}
	return ms, true, nil
}

// saveMembers durably publishes the roster.
func saveMembers(dir string, ms memberState) error {
	b, err := json.MarshalIndent(ms, "", "  ")
	if err != nil {
		return fmt.Errorf("replica: encode membership: %w", err)
	}
	return store.PublishFile(dir, membersFileName, append(b, '\n'))
}
