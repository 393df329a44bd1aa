package replica

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"xmlconflict/internal/store"
)

// The replication epoch is the fencing token: it lives in
// repl-epoch.json next to the shard manifest and is rewritten (temp +
// fsync + rename, like every other durable publish in this codebase)
// on every adoption or promotion. A node that restarts reads it back
// strictly — a half-written or corrupt file refuses to open, because a
// node rejoining under a guessed epoch could accept frames from a
// deposed primary and diverge silently.

// epochFileName holds the persisted epoch inside the node's data dir.
const epochFileName = "repl-epoch.json"

// epochState is the persisted fencing record. Dirty marks a node that
// was deposed while primary: its log may carry a never-quorum-acked
// tail, and it must complete a full-state resync from the new primary
// before applying frames again — surviving a crash mid-resync is
// exactly why the flag is durable.
//
// Promised/PromisedTo record an election vote: this node has durably
// promised epoch Promised to candidate PromisedTo and rejects every
// append or heartbeat below it, even across a crash — the write-fence
// that makes majority intersection hold during failover. The pair is
// only written while it outranks the established epoch; adopting an
// epoch at or above the promise clears it.
type epochState struct {
	Version    int    `json:"version"`
	Epoch      uint64 `json:"epoch"`
	Primary    string `json:"primary"`
	Dirty      bool   `json:"dirty,omitempty"`
	Promised   uint64 `json:"promised,omitempty"`
	PromisedTo string `json:"promised_to,omitempty"`
}

// loadEpoch reads the persisted epoch. A missing file is a fresh node
// (ok=false); anything unparseable or structurally invalid is an
// error, never a silent fresh start.
func loadEpoch(dir string) (epochState, bool, error) {
	var ep epochState
	path := filepath.Join(dir, epochFileName)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return ep, false, nil
	}
	if err != nil {
		return ep, false, fmt.Errorf("replica: read %s: %w", epochFileName, err)
	}
	if err := json.Unmarshal(b, &ep); err != nil {
		return ep, false, fmt.Errorf("replica: %s is corrupt or half-written (%v); refusing to rejoin under a guessed epoch — restore the file or remove it to re-init the node", epochFileName, err)
	}
	if ep.Version != 1 {
		return ep, false, fmt.Errorf("replica: %s has version %d; this build reads version 1", epochFileName, ep.Version)
	}
	if ep.Epoch == 0 {
		return ep, false, fmt.Errorf("replica: %s carries epoch 0 (epochs start at 1); the file is corrupt", epochFileName)
	}
	if ep.Primary == "" {
		return ep, false, fmt.Errorf("replica: %s names no primary; the file is corrupt", epochFileName)
	}
	if (ep.Promised != 0) != (ep.PromisedTo != "") {
		return ep, false, fmt.Errorf("replica: %s carries a half-written election promise (promised %d to %q); the file is corrupt", epochFileName, ep.Promised, ep.PromisedTo)
	}
	if ep.Promised != 0 && ep.Promised <= ep.Epoch {
		return ep, false, fmt.Errorf("replica: %s promises epoch %d at or below the established epoch %d; the file is corrupt", epochFileName, ep.Promised, ep.Epoch)
	}
	return ep, true, nil
}

// saveEpoch durably publishes the epoch record.
func saveEpoch(dir string, ep epochState) error {
	b, err := json.MarshalIndent(ep, "", "  ")
	if err != nil {
		return fmt.Errorf("replica: encode epoch: %w", err)
	}
	return store.PublishFile(dir, epochFileName, append(b, '\n'))
}
