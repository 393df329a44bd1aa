package replica

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"xmlconflict/internal/store"
)

// Chunked, resumable state transfer on the replication plane. Both
// directions move CRC-framed chunks of the exporter's snapshot file at
// its LSN when the session opened, and the RECEIVER steers: every reply
// names the offset it needs next, read from the durable progress record
// the store keeps, so an interrupted transfer resumes instead of
// restarting.
//
//   - push (primary → backup): the frame buffer no longer reaches the
//     peer, so shipTo switches to POST /v1/repl/xfer chunk loops and the
//     ack is counted only once the receiver reports the install complete
//     (and its post-install fence re-check passed).
//   - pull (backup ← primary): resync and a trimmed-buffer catch-up GET
//     /v1/repl/xfer/{shard} chunk by chunk, resuming from XferProgress.
//
// Installation stays atomic either way: the store publishes nothing
// until the received file passes the snapshot loader's verification.

const (
	// maxSinceFrames / maxSinceBytes bound one anti-entropy page: a
	// /v1/repl/since response (or one pushed append batch) never carries
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

// xferPushRequest ships one state chunk primary→backup.
type xferPushRequest struct {
	Epoch   uint64          `json:"epoch"`
	Primary string          `json:"primary"`
	Shard   int             `json:"shard"`
	Chunk   store.XferChunk `json:"chunk"`
}

// xferPushResponse reports the receiver's transfer progress. Next is
// the offset it needs next (its durable resume point); Complete and LSN
// are set once the final chunk verified and installed. Accepted is
// false when the sender's epoch is stale, appendResponse-compatible.
type xferPushResponse struct {
	Accepted bool   `json:"accepted"`
	Epoch    uint64 `json:"epoch"`
	Primary  string `json:"primary"`
	Next     int64  `json:"next"`
	Complete bool   `json:"complete,omitempty"`
	LSN      uint64 `json:"lsn,omitempty"`
}

// xferPullResponse carries one chunk of the receiver-driven pull path.
type xferPullResponse struct {
	Epoch   uint64          `json:"epoch"`
	Primary string          `json:"primary"`
	Chunk   store.XferChunk `json:"chunk"`
}

// handleXferGet serves one exporter chunk (the pull path). An empty or
// unknown session opens a fresh session at the current LSN; the
// receiver notices the new id and restarts its part file from zero.
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

// handleXferPush folds one pushed chunk into the local shard (the push
// path). The reply's Next offset steers the sender; the completed
// install is acknowledged only if no election promise landed while the
// state was applying — the same post-apply fence re-check appends get.
func (n *Node) handleXferPush(w http.ResponseWriter, r *http.Request) {
	if n.partitioned(w) {
		return
	}
	var req xferPushRequest
	if !decodeRepl(w, r, &req) {
		return
	}
	if !n.observeEpoch(req.Epoch, req.Primary) {
		n.rejectEpoch(w)
		return
	}
	n.touchPrimary(req.Primary, nil)
	if req.Shard < 0 || req.Shard >= n.router.Shards() {
		replJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("shard %d out of range", req.Shard), "reason": "bad-request"})
		return
	}
	st := n.router.Store(req.Shard)
	next, complete, err := st.ImportChunk(r.Context(), req.Chunk)
	if err != nil {
		replJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error(), "reason": "import-failed"})
		return
	}
	n.mu.Lock()
	epoch, primary := n.epoch, n.primaryID
	n.mu.Unlock()
	resp := xferPushResponse{Accepted: true, Epoch: epoch, Primary: primary, Next: next}
	if complete {
		n.noteImport(req.Shard, req.Epoch, req.Primary, st.LSN())
		n.m.Add("repl.state_imports", 1)
		if n.fencedSince(req.Epoch) {
			// A vote granted mid-install means this state may postdate the
			// fence: the sender must not count it toward any quorum.
			n.rejectEpoch(w)
			return
		}
		resp.Complete = true
		resp.LSN = st.LSN()
	}
	replJSON(w, http.StatusOK, resp)
}

// pushState transfers one shard's full state to a peer chunk by chunk
// and returns the LSN the peer installed. The receiver's Next replies
// steer the offsets, read from its durable progress record, and the
// sender remembers the (session, offset) it last reached on the
// stream's peerShard — so a transfer cut by an error resumes where it
// left off when shipTo's backoff loop re-enters this call, instead of
// abandoning the receiver's progress and restarting from byte zero.
// The caller holds ps.mu for the duration (shipTo's stream lock),
// which is what guards the resume mark.
func (n *Node) pushState(ctx context.Context, p Peer, epoch uint64, shardIdx int, st *store.Store, ps *peerShard) (uint64, error) {
	session, offset := ps.xferSession, ps.xferOffset
	stalls := 0
	for {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("replica: push state to %s shard %d: %w", p.ID, shardIdx, err)
		}
		c, err := st.ExportChunk(session, offset, 0)
		if err != nil {
			return 0, err
		}
		restarted := session != "" && c.Session != session
		if restarted {
			// Our session's snapshot was pruned: the receiver will restart
			// from zero under the new id. Endless snapshot churn must not
			// restart the transfer forever, so it spends the same stall
			// budget a frozen offset does.
			stalls++
		}
		session = c.Session // a fresh session reports the id every later chunk reuses
		var resp xferPushResponse
		err = n.postPeer(ctx, p, "/v1/repl/xfer", xferPushRequest{Epoch: epoch, Primary: n.self.ID, Shard: shardIdx, Chunk: c}, &resp)
		if err != nil {
			// Remember how far this attempt got: the receiver holds its
			// progress durably, and resuming the same session keeps it.
			ps.xferSession, ps.xferOffset = session, offset
			return 0, err
		}
		if !resp.Accepted || resp.Epoch != epoch {
			ps.xferSession, ps.xferOffset = "", 0
			return 0, n.fencedBy(resp.Epoch, resp.Primary)
		}
		if resp.Complete {
			ps.xferSession, ps.xferOffset = "", 0
			n.m.Add("repl.xfer_pushes", 1)
			return resp.LSN, nil
		}
		if resp.Next == c.Offset {
			if stalls++; stalls > xferMaxStalls {
				ps.xferSession, ps.xferOffset = "", 0
				return 0, fmt.Errorf("replica: push state to %s shard %d stalled at offset %d", p.ID, shardIdx, c.Offset)
			}
		} else if !restarted {
			stalls = 0
		}
		offset = resp.Next
		ps.xferSession, ps.xferOffset = session, offset
	}
}

// pullState replaces one local shard wholesale from a peer, resuming an
// interrupted inbound transfer from the store's durable progress
// record.
func (n *Node) pullState(ctx context.Context, p Peer, shardIdx int, st *store.Store) error {
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
		next, complete, err := st.ImportChunk(ctx, resp.Chunk)
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
