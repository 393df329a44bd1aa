package replica

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"xmlconflict/internal/store"
)

// Chunked, resumable state transfer on the replication plane has one
// mover: the importer pulls. A backup whose catch-up finds the peer's
// retained log starting past its LSN, and a dirty node's resync, GET
// /v1/repl/xfer/{shard} chunk by chunk: CRC-framed byte ranges of the
// exporter's snapshot file at its LSN when the session opened. The
// importer steers — every ImportChunk answers the offset it needs next,
// read from the durable progress record the store keeps — so an
// interrupted transfer resumes instead of restarting. Only the monitor
// loop pulls, so no two movers feed one progress record, and the store
// refuses to install a session below its own LSN unless the caller
// replaces it (a dirty node's resync): frames applied since a session
// opened are never rolled back. The primary never pushes state; a peer
// below its retained log answers shipped pages with a gap until its
// own pull lands.
//
// Installation is atomic: the store publishes nothing until the
// received file passes the snapshot loader's verification.

const (
	// maxSinceFrames / maxSinceBytes bound one anti-entropy page: a
	// /v1/repl/since response (or one shipped append page) never carries
	// more than this, however far behind the peer is. The first frame
	// always ships, so progress is guaranteed even for one oversized
	// frame.
	maxSinceFrames = 256
	maxSinceBytes  = 4 << 20

	// xferMaxStalls bounds consecutive non-advancing transfer rounds
	// before the mover gives up (a session whose snapshot was pruned
	// restarts in one round; anything persistent is a real
	// disagreement).
	xferMaxStalls = 3
)

// xferPullResponse carries one pulled chunk.
type xferPullResponse struct {
	Epoch   uint64          `json:"epoch"`
	Primary string          `json:"primary"`
	Chunk   store.XferChunk `json:"chunk"`
}

// handleXferGet serves one exporter chunk. An empty or unknown session
// opens a fresh session at the current LSN; the receiver notices the
// new id and restarts its part file from zero.
func (n *Node) handleXferGet(w http.ResponseWriter, r *http.Request) {
	if n.partitioned(w) {
		return
	}
	shardIdx, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || shardIdx < 0 || shardIdx >= n.router.Shards() {
		replJSON(w, http.StatusBadRequest, map[string]string{"error": "bad shard", "reason": "bad-request"})
		return
	}
	q := r.URL.Query()
	offset, _ := strconv.ParseInt(q.Get("offset"), 10, 64)
	max, _ := strconv.Atoi(q.Get("max"))
	c, err := n.router.Store(shardIdx).ExportChunk(q.Get("session"), offset, max)
	if err != nil {
		replJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error(), "reason": "export-failed"})
		return
	}
	n.mu.Lock()
	epoch, primary := n.epoch, n.primaryID
	n.mu.Unlock()
	replJSON(w, http.StatusOK, xferPullResponse{Epoch: epoch, Primary: primary, Chunk: c})
}

// pullState brings one local shard to a peer's snapshot, resuming an
// interrupted inbound transfer from the store's durable progress
// record. replace is true only for a dirty node's resync, which may
// install below its own LSN to discard an unreplicated tail.
func (n *Node) pullState(ctx context.Context, p Peer, shardIdx int, st *store.Store, replace bool) error {
	session, offset, _ := st.XferProgress()
	stalls := 0
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("replica: pull state from %s shard %d: %w", p.ID, shardIdx, err)
		}
		var resp xferPullResponse
		path := fmt.Sprintf("/v1/repl/xfer/%d?session=%s&offset=%d", shardIdx, url.QueryEscape(session), offset)
		if err := n.getPeer(ctx, p, path, &resp); err != nil {
			return err
		}
		if resp.Epoch > n.Epoch() {
			n.observeEpoch(resp.Epoch, resp.Primary)
			return fmt.Errorf("replica: pull state from %s: peer moved to epoch %d", p.ID, resp.Epoch)
		}
		restarted := session != "" && resp.Chunk.Session != session
		if restarted {
			// A changed session id restarts the transfer from zero on the
			// importer side; charge it against the stall budget so exporter
			// snapshot churn cannot restart the pull forever.
			stalls++
		}
		session = resp.Chunk.Session // the exporter may have opened a fresh session
		next, complete, err := st.ImportChunk(ctx, resp.Chunk, replace)
		if err != nil {
			return err
		}
		if complete {
			n.noteImport(shardIdx, n.Epoch(), p.ID, st.LSN())
			n.m.Add("repl.state_imports", 1)
			return nil
		}
		if next == offset {
			if stalls++; stalls > xferMaxStalls {
				return fmt.Errorf("replica: pull state from %s shard %d stalled at offset %d", p.ID, shardIdx, offset)
			}
		} else if !restarted {
			stalls = 0
		}
		offset = next
	}
}
