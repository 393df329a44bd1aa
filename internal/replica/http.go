package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/store"
)

// The replication wire protocol: JSON over HTTP, every request
// stamped with the sender's epoch and primary claim. A receiver that
// knows a newer epoch answers 409 with it — the stale sender adopts
// the answer and fences itself. Responses are decoded for both 200
// and 409, so fencing is data, not an opaque transport error.

// maxReplBody bounds a replication body, request or response. A page
// of frames always carries its first frame, which the store's 64 MiB
// record limit caps; a state-transfer chunk arrives in a pull response
// and is smaller still.
const maxReplBody = 96 << 20

// appendRequest ships committed WAL frames for one shard.
type appendRequest struct {
	Epoch   uint64            `json:"epoch"`
	Primary string            `json:"primary"`
	Shard   int               `json:"shard"`
	Frames  []store.ReplFrame `json:"frames"`
}

// appendResponse reports the receiver's post-apply position. Accepted
// is false when the sender's epoch is stale; Epoch/Primary then carry
// the receiver's newer claim. Diverged marks a receiver mid-resync
// (its log does not extend the sender's); LSN is always the
// receiver's authoritative position for the shard, which on a gap
// rewinds the sender's stream.
type appendResponse struct {
	Accepted bool   `json:"accepted"`
	Epoch    uint64 `json:"epoch"`
	Primary  string `json:"primary"`
	LSN      uint64 `json:"lsn"`
	Diverged bool   `json:"diverged,omitempty"`
}

// OK reports the response accepted the sender's epoch.
func (r appendResponse) OK(epoch uint64) bool { return r.Accepted && r.Epoch == epoch }

// prepareRequest is a candidate's election vote request: "promise me
// epoch Epoch". A peer that grants it durably persists the promise and
// from that moment rejects every append and heartbeat below Epoch —
// the write-fence that makes a failover unable to lose quorum-acked
// writes even while the old primary is still up and reachable by some
// of the cluster.
type prepareRequest struct {
	Epoch     uint64 `json:"epoch"`
	Candidate string `json:"candidate"`
}

// prepareResponse reports the vote. A grant carries the voter's
// per-shard LSNs as of the fence: any write acked at quorum under an
// older epoch intersects the voter majority, so the max of these
// positions bounds the candidate's required catch-up. It also carries
// the voter's committed roster — a membership revision is committed by
// a majority of its NEW voter set, which may exclude the candidate, so
// the newest roster among the granters (not the candidate's own copy)
// is what a winner must carry forward. A refusal carries the voter's
// established claim for the candidate to fold in.
type prepareResponse struct {
	Granted bool         `json:"granted"`
	Epoch   uint64       `json:"epoch"`
	Primary string       `json:"primary"`
	LSNs    []uint64     `json:"lsns,omitempty"`
	Members *memberState `json:"members,omitempty"`
}

// heartbeatRequest announces the primary's liveness and positions,
// plus its committed membership version for roster anti-entropy.
type heartbeatRequest struct {
	Epoch        uint64   `json:"epoch"`
	Primary      string   `json:"primary"`
	LSNs         []uint64 `json:"lsns"`
	MembersEpoch uint64   `json:"members_epoch"`
	MembersRev   uint64   `json:"members_rev"`
}

// heartbeatResponse carries the backup's positions for lag tracking and
// its roster version — a stale one triggers a membership re-push.
type heartbeatResponse struct {
	Accepted     bool     `json:"accepted"`
	Epoch        uint64   `json:"epoch"`
	Primary      string   `json:"primary"`
	LSNs         []uint64 `json:"lsns"`
	Tentative    int      `json:"tentative"`
	MembersEpoch uint64   `json:"members_epoch"`
	MembersRev   uint64   `json:"members_rev"`
}

// sinceResponse answers anti-entropy catch-up: a bounded page of frames
// past the requested LSN (More means ask again from the new position),
// or Reset when the peer's retained log no longer reaches back to it —
// the caller must pull full state through the chunked transfer path
// instead.
type sinceResponse struct {
	Epoch   uint64            `json:"epoch"`
	Primary string            `json:"primary"`
	LSN     uint64            `json:"lsn"`
	Frames  []store.ReplFrame `json:"frames,omitempty"`
	More    bool              `json:"more,omitempty"`
	Reset   bool              `json:"reset,omitempty"`
}

// mergeRequest submits a disconnected node's tentative log for
// detector-arbitrated merge on the primary.
type mergeRequest struct {
	Epoch uint64        `json:"epoch"`
	From  string        `json:"from"`
	Ops   []TentativeOp `json:"ops"`
}

// mergeResponse reports each op's fate. Accepted is false when the
// receiver is not the primary; Epoch/Primary then say who is.
type mergeResponse struct {
	Accepted bool           `json:"accepted"`
	Epoch    uint64         `json:"epoch"`
	Primary  string         `json:"primary"`
	Outcomes []MergeOutcome `json:"outcomes,omitempty"`
}

// Handler mounts the replication API. The same handler serves an
// xserve daemon and an in-process test cluster.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/repl/append", n.handleAppend)
	mux.HandleFunc("POST /v1/repl/prepare", n.handlePrepare)
	mux.HandleFunc("POST /v1/repl/heartbeat", n.handleHeartbeat)
	mux.HandleFunc("GET /v1/repl/since/{shard}/{after}", n.handleSince)
	mux.HandleFunc("GET /v1/repl/xfer/{shard}", n.handleXferGet)
	mux.HandleFunc("POST /v1/repl/members", n.handleMembers)
	mux.HandleFunc("POST /v1/repl/merge", n.handleMerge)
	mux.HandleFunc("GET /v1/repl/status", n.handleStatus)
	mux.HandleFunc("GET /v1/repl/merges", n.handleMerges)
	return mux
}

// partitionFault fires the partition sites: the cluster-wide
// "repl.partition" and this node's "repl.partition.<id>", so a test
// can sever one node of an in-process cluster (whose faultinject
// registry is shared) or all of them.
func (n *Node) partitionFault() error {
	if err := faultinject.Fire("repl.partition"); err != nil {
		return err
	}
	return faultinject.Fire("repl.partition." + n.self.ID)
}

// linkFault fires the sender-side cut sites for one outbound RPC: the
// symmetric partition sites plus "repl.link.<dest>", which severs only
// this node's sends TO dest — dest can still reach us, the asymmetric
// cut a partition soak flaps to catch one-way-blind convergence bugs.
func (n *Node) linkFault(p Peer) error {
	if err := n.partitionFault(); err != nil {
		return err
	}
	return faultinject.Fire("repl.link." + p.ID)
}

// partitioned answers 503 when a partition fault is armed for this
// node; handlers bail out first thing, so the node is unreachable in
// both directions.
func (n *Node) partitioned(w http.ResponseWriter) bool {
	if err := n.partitionFault(); err != nil {
		replJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error(), "reason": "partitioned"})
		return true
	}
	return false
}

func replJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is fine
}

// decodeRepl parses a bounded JSON request body.
func decodeRepl(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxReplBody))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		replJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error(), "reason": "bad-request"})
		return false
	}
	return true
}

// rejectEpoch answers a stale sender with the local, newer claim. When
// an election promise outranks the established epoch the answer
// carries the promised epoch with an EMPTY primary: the sender learns
// it is fenced (its write must not be acked) without adopting a claim
// nobody has won yet.
func (n *Node) rejectEpoch(w http.ResponseWriter) {
	n.mu.Lock()
	epoch, primary := n.epoch, n.primaryID
	if n.promised > epoch {
		epoch, primary = n.promised, ""
	}
	n.mu.Unlock()
	n.m.Add("repl.fencings_served", 1)
	replJSON(w, http.StatusConflict, appendResponse{Accepted: false, Epoch: epoch, Primary: primary})
}

// touchPrimary refreshes the failure detector when the current
// primary makes contact.
func (n *Node) touchPrimary(primary string, lsns []uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if primary == n.primaryID {
		n.lastContact = time.Now()
	}
	if lsns != nil && primary != n.self.ID {
		n.peerLSNs[primary] = append([]uint64(nil), lsns...)
	}
}

func (n *Node) handleAppend(w http.ResponseWriter, r *http.Request) {
	if n.partitioned(w) {
		return
	}
	var req appendRequest
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
	n.mu.Lock()
	epoch, primary, dirty := n.epoch, n.primaryID, n.dirty
	// State imported wholesale from this very (epoch, primary) verifies
	// overlapping re-shipped frames by provenance: the import emptied
	// the local log, so byte-comparison cannot reach below its LSN.
	var floor uint64
	if mk := n.resyncBase[req.Shard]; mk.epoch == req.Epoch && mk.primary == req.Primary {
		floor = mk.lsn
	}
	n.mu.Unlock()
	if dirty {
		replJSON(w, http.StatusOK, appendResponse{Accepted: true, Epoch: epoch, Primary: primary, LSN: st.LSN(), Diverged: true})
		return
	}
	lsn, err := st.ApplyFrames(r.Context(), req.Frames, floor)
	if err == nil && n.fencedSince(req.Epoch) {
		// An election promise landed while the frames were applying: the
		// epoch gate above ran before the vote was granted, so the
		// voter's fence-time positions may not include this apply.
		// Withholding the ack keeps the write out of any epoch-e quorum;
		// the extra local tail is caught by overlap verification (or a
		// resync) once the new primary's log advances past it.
		n.rejectEpoch(w)
		return
	}
	switch {
	case err == nil:
		n.m.Add("repl.frames_applied", int64(len(req.Frames)))
		replJSON(w, http.StatusOK, appendResponse{Accepted: true, Epoch: epoch, Primary: primary, LSN: lsn})
	case errors.Is(err, store.ErrReplGap):
		// Not an error to the sender: the LSN rewinds its stream.
		n.m.Add("repl.gaps", 1)
		replJSON(w, http.StatusOK, appendResponse{Accepted: true, Epoch: epoch, Primary: primary, LSN: lsn})
	case errors.Is(err, store.ErrClosed):
		replJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error(), "reason": "store-closed"})
	default:
		// The frames failed verification against local state — shipped
		// content differing at committed LSNs (store.ErrReplDiverged), or
		// a corrupt stream. This replica has diverged from the sender's
		// log: go dirty and resync wholesale rather than guess, and never
		// ack frames it does not provably hold.
		n.m.Add("repl.diverged", 1)
		n.markDirty()
		replJSON(w, http.StatusOK, appendResponse{Accepted: true, Epoch: epoch, Primary: primary, LSN: st.LSN(), Diverged: true})
	}
}

// fencedSince reports whether an epoch claim that passed the gate at
// the top of a handler has been outranked since — by an adopted newer
// epoch or by a durable election promise. Handlers that apply state
// re-check after applying: the grant of a vote and an in-flight apply
// race on different locks, and the ack must lose that race, never win
// it.
func (n *Node) fencedSince(epoch uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return epoch < n.epoch || epoch < n.promised
}

// markDirty durably flags this node for full-state resync.
func (n *Node) markDirty() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dirty {
		return
	}
	n.dirty = true
	if err := saveEpoch(n.dir, n.epochStateLocked()); err != nil {
		n.m.Add("repl.epoch_persist_errors", 1)
	}
}

// handlePrepare is the voter side of the promotion protocol. A grant
// durably persists (Promised=req.Epoch, PromisedTo=req.Candidate)
// BEFORE answering; from that write on, this node rejects every append
// and heartbeat below the promised epoch, even across a crash. The
// grant's LSNs — read after the fence is durable — are therefore an
// upper bound on everything this voter ever acked at older epochs,
// which is what lets the candidate's catch-up cover all quorum-acked
// writes. Re-granting the same (epoch, candidate) is idempotent, so an
// aborted candidacy can retry; any other claim at or below the current
// promise or epoch is refused with the established claim.
func (n *Node) handlePrepare(w http.ResponseWriter, r *http.Request) {
	if n.partitioned(w) {
		return
	}
	var req prepareRequest
	if !decodeRepl(w, r, &req) {
		return
	}
	n.mu.Lock()
	candVoter := req.Candidate != "" && n.isVoterLocked(req.Candidate)
	selfVoter := n.isVoterLocked(n.self.ID) && !n.removed
	n.mu.Unlock()
	if !candVoter {
		// Only a committed voter may stand: a learner, a removed node, or
		// a stranger cannot open a ballot here.
		replJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("candidate %q is not a committed voter", req.Candidate), "reason": "bad-request"})
		return
	}
	if !selfVoter {
		// A learner's (or removed node's) vote must never count toward a
		// majority of the voter set — refuse with the established claim.
		n.m.Add("repl.votes_refused", 1)
		n.mu.Lock()
		epoch, primary := n.epoch, n.primaryID
		n.mu.Unlock()
		replJSON(w, http.StatusConflict, prepareResponse{Granted: false, Epoch: epoch, Primary: primary})
		return
	}
	n.mu.Lock()
	regrant := req.Epoch == n.promised && req.Epoch > n.epoch && req.Candidate == n.promisedTo
	granted := regrant || (req.Epoch > n.epoch && req.Epoch > n.promised)
	if granted && !regrant {
		prevP, prevTo := n.promised, n.promisedTo
		n.promised, n.promisedTo = req.Epoch, req.Candidate
		if err := saveEpoch(n.dir, n.epochStateLocked()); err != nil {
			// An unpersisted promise is no promise: a restart would forget
			// it and un-fence the old primary.
			n.promised, n.promisedTo = prevP, prevTo
			n.m.Add("repl.epoch_persist_errors", 1)
			granted = false
		}
	}
	epoch, primary := n.epoch, n.primaryID
	ms := n.members.clone()
	n.mu.Unlock()
	if !granted {
		n.m.Add("repl.votes_refused", 1)
		replJSON(w, http.StatusConflict, prepareResponse{Granted: false, Epoch: epoch, Primary: primary})
		return
	}
	n.m.Add("repl.votes_granted", 1)
	// LSNs are read only after the promise is durable: an append racing
	// the grant either finished before it (included here) or gets its
	// ack withheld by the handler's post-apply fence re-check.
	replJSON(w, http.StatusOK, prepareResponse{Granted: true, Epoch: epoch, Primary: primary, LSNs: n.router.LSNs(), Members: &ms})
}

func (n *Node) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if n.partitioned(w) {
		return
	}
	if err := faultinject.Fire("repl.heartbeat"); err != nil {
		replJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error(), "reason": "fault"})
		return
	}
	var req heartbeatRequest
	if !decodeRepl(w, r, &req) {
		return
	}
	if !n.observeEpoch(req.Epoch, req.Primary) {
		n.rejectEpoch(w)
		return
	}
	n.touchPrimary(req.Primary, req.LSNs)
	n.mu.Lock()
	epoch, primary, tent := n.epoch, n.primaryID, len(n.tent)
	msEpoch, msRev := n.members.Epoch, n.members.Rev
	n.mu.Unlock()
	replJSON(w, http.StatusOK, heartbeatResponse{
		Accepted: true, Epoch: epoch, Primary: primary,
		LSNs: n.router.LSNs(), Tentative: tent,
		MembersEpoch: msEpoch, MembersRev: msRev,
	})
}

func (n *Node) handleSince(w http.ResponseWriter, r *http.Request) {
	if n.partitioned(w) {
		return
	}
	shardIdx, err1 := strconv.Atoi(r.PathValue("shard"))
	after, err2 := strconv.ParseUint(r.PathValue("after"), 10, 64)
	if err1 != nil || err2 != nil || shardIdx < 0 || shardIdx >= n.router.Shards() {
		replJSON(w, http.StatusBadRequest, map[string]string{"error": "bad shard or lsn", "reason": "bad-request"})
		return
	}
	st := n.router.Store(shardIdx)
	n.mu.Lock()
	epoch, primary := n.epoch, n.primaryID
	n.mu.Unlock()
	// The page is bounded however far behind the caller is: an unbounded
	// since-response could balloon to the whole retained log in one body.
	// More tells the caller to come back from its new position.
	resp := sinceResponse{Epoch: epoch, Primary: primary, LSN: st.LSN()}
	frames, more, ok, err := st.FramesSincePage(after, maxSinceFrames, maxSinceBytes)
	switch {
	case errors.Is(err, store.ErrClosed):
		replJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error(), "reason": "store-closed"})
		return
	case err != nil:
		replJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error(), "reason": "store-read"})
		return
	}
	if ok {
		resp.Frames = frames
		resp.More = more
	} else {
		resp.Reset = true
	}
	replJSON(w, http.StatusOK, resp)
}

func (n *Node) handleMerge(w http.ResponseWriter, r *http.Request) {
	if n.partitioned(w) {
		return
	}
	var req mergeRequest
	if !decodeRepl(w, r, &req) {
		return
	}
	n.mu.Lock()
	epoch, primary, role := n.epoch, n.primaryID, n.role
	n.mu.Unlock()
	// A sender carrying a NEWER epoch knows a primary this node has not
	// heard of yet — accepting its ops here could commit them outside
	// the live epoch's log. Refuse; the sender requeues and retries once
	// the topology has settled (heartbeats will fence this node soon).
	if role != RolePrimary || req.Epoch > epoch {
		replJSON(w, http.StatusConflict, mergeResponse{Accepted: false, Epoch: epoch, Primary: primary})
		return
	}
	outcomes := n.mergeLocal(r.Context(), req.Ops)
	replJSON(w, http.StatusOK, mergeResponse{Accepted: true, Epoch: epoch, Primary: primary, Outcomes: outcomes})
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	if n.partitioned(w) {
		return
	}
	replJSON(w, http.StatusOK, n.Status())
}

func (n *Node) handleMerges(w http.ResponseWriter, r *http.Request) {
	if n.partitioned(w) {
		return
	}
	replJSON(w, http.StatusOK, map[string]any{"merges": n.MergeOutcomes()})
}

// postPeer performs one replication POST, decoding the body for both
// 200 and 409 (a 409 carries the receiver's newer epoch — data the
// caller folds in, not a transport failure).
func (n *Node) postPeer(ctx context.Context, p Peer, path string, body, out any) error {
	if err := n.linkFault(p); err != nil {
		return err
	}
	b, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("replica: encode %s: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.URL+path, bytes.NewReader(b))
	if err != nil {
		return fmt.Errorf("replica: %s to %s: %w", path, p.ID, err)
	}
	req.Header.Set("Content-Type", "application/json")
	return n.doPeer(req, p, path, out)
}

// getPeer performs one replication GET.
func (n *Node) getPeer(ctx context.Context, p Peer, path string, out any) error {
	if err := n.linkFault(p); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+path, nil)
	if err != nil {
		return fmt.Errorf("replica: %s from %s: %w", path, p.ID, err)
	}
	return n.doPeer(req, p, path, out)
}

func (n *Node) doPeer(req *http.Request, p Peer, path string, out any) error {
	resp, err := n.hc.Do(req)
	if err != nil {
		return fmt.Errorf("replica: %s to %s: %w", path, p.ID, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxReplBody))
	if err != nil {
		return fmt.Errorf("replica: %s to %s: read: %w", path, p.ID, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		return fmt.Errorf("replica: %s to %s: status %d: %.200s", path, p.ID, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("replica: %s to %s: decode: %w", path, p.ID, err)
	}
	return nil
}
