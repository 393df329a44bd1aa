package replica

import (
	"context"
	"fmt"
	"sync"
	"time"

	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/store"
)

// The monitor is the node's one background loop, ticking every
// heartbeat interval. As primary it announces liveness (and collects
// backup positions for lag gauges); as backup it watches for primary
// silence and runs the promotion protocol; dirty (fenced) it performs
// the full-state resync before anything else.

func (n *Node) loop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.opts.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
			n.tick()
		}
	}
}

// tick runs one monitor step, containing panics (faultinject promote
// drills, or real bugs) so the loop — and the node — survives them.
func (n *Node) tick() {
	defer func() {
		if r := recover(); r != nil {
			n.m.Add("repl.monitor_panics", 1)
		}
	}()
	n.mu.Lock()
	role, dirty, removed := n.role, n.dirty, n.removed
	n.mu.Unlock()
	switch {
	case removed:
		// A drained node stays answerable (status, reads) but takes no
		// further part in replication: it neither heartbeats nor stands
		// for promotion, so the survivors depose it on schedule.
	case dirty:
		n.resync()
	case role == RolePrimary:
		n.sendHeartbeats()
		n.promoteCaughtUpLearners()
	default:
		n.checkPrimary()
	}
}

// sendHeartbeats announces this primary to every peer concurrently.
// Responses refresh the per-peer position map and lag gauges; a 409
// (newer epoch) fences this node on the spot. No retry here — the next
// tick is the retry.
func (n *Node) sendHeartbeats() {
	n.mu.Lock()
	epoch := n.epoch
	ms := n.members
	voters, learners := n.remotePeersLocked()
	n.mu.Unlock()
	peers := append(voters, learners...)
	lsns := n.router.LSNs()
	ctx, cancel := context.WithTimeout(context.Background(), n.opts.HeartbeatEvery*3)
	defer cancel()
	var wg sync.WaitGroup
	for _, p := range peers {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp heartbeatResponse
			err := n.contain(func() error {
				if err := faultinject.Fire("repl.heartbeat"); err != nil {
					return err
				}
				return n.postPeer(ctx, p, "/v1/repl/heartbeat", heartbeatRequest{
					Epoch: epoch, Primary: n.self.ID, LSNs: lsns,
					MembersEpoch: ms.Epoch, MembersRev: ms.Rev,
				}, &resp)
			})
			if err != nil {
				n.m.Add("repl.heartbeat_errors", 1)
				return
			}
			n.m.Add("repl.heartbeats", 1)
			if !resp.Accepted {
				n.observeEpoch(resp.Epoch, resp.Primary)
				return
			}
			n.recordPeerLSNs(p.ID, resp.LSNs, lsns)
			if resp.MembersEpoch < ms.Epoch || (resp.MembersEpoch == ms.Epoch && resp.MembersRev < ms.Rev) {
				// Membership anti-entropy: a peer behind on the committed
				// roster (it was down or partitioned through a change, or a
				// learner still carrying its boot-time guess) gets the
				// current revision re-pushed.
				n.contain(func() error { return n.pushMembersTo(ctx, p, epoch, ms) }) //nolint:errcheck // next tick retries
			}
		}()
	}
	wg.Wait()
}

// promoteCaughtUpLearners commits learner→voter transitions for every
// learner whose heartbeat-reported positions are within a few frames
// of the primary's: once it provably holds (almost) the whole log,
// counting it in quorums only strengthens them. One revision per
// learner; the committed roster is always one change at a time.
func (n *Node) promoteCaughtUpLearners() {
	const learnerPromoteLag = 4 // frames of slack before a learner can vote
	ours := n.router.LSNs()
	n.mu.Lock()
	var ready []string
	for _, m := range n.members.Members {
		if !m.Learner {
			continue
		}
		theirs, ok := n.peerLSNs[m.ID]
		if !ok {
			continue
		}
		caught := len(theirs) >= len(ours)
		for i := 0; caught && i < len(ours); i++ {
			if ours[i] > theirs[i]+learnerPromoteLag {
				caught = false
			}
		}
		if caught {
			ready = append(ready, m.ID)
		}
	}
	n.mu.Unlock()
	for _, id := range ready {
		if err := n.PromoteVoter(context.Background(), id); err != nil {
			n.m.Add("repl.member_commit_errors", 1)
			return // next tick retries
		}
		n.m.Add("repl.learner_promotions", 1)
	}
}

// recordPeerLSNs stores a peer's reported positions and refreshes its
// lag gauge (the max per-shard LSN deficit against ours).
func (n *Node) recordPeerLSNs(id string, theirs, ours []uint64) {
	n.mu.Lock()
	n.peerLSNs[id] = append([]uint64(nil), theirs...)
	n.mu.Unlock()
	var lag uint64
	for i := 0; i < len(ours) && i < len(theirs); i++ {
		if ours[i] > theirs[i] && ours[i]-theirs[i] > lag {
			lag = ours[i] - theirs[i]
		}
	}
	n.m.Labeled("peer", id).Gauge("repl.lag").Set(int64(lag))
}

// rank is this backup's position among the committed non-primary
// voters (in roster order): rank 0 stands for promotion first, rank 1
// one FailoverAfter later, and so on — staggering keeps concurrent
// candidacies rare (the epoch tie-break resolves the rest).
func (n *Node) rank() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	r := 0
	for _, m := range n.members.Members {
		if m.ID == n.primaryID || m.Learner {
			continue
		}
		if m.ID == n.self.ID {
			return r
		}
		r++
	}
	return r
}

// checkPrimary is the backup's failure detector: flush any tentative
// backlog while the primary is reachable, and stand for promotion
// once it has been silent past this node's staggered threshold.
// Learners watch and catch up but never stand — a voter must come from
// the committed roster.
func (n *Node) checkPrimary() {
	n.mu.Lock()
	silent := time.Since(n.lastContact)
	tent := len(n.tent)
	voter := n.isVoterLocked(n.self.ID)
	n.mu.Unlock()
	if silent <= n.opts.FailoverAfter {
		if tent > 0 {
			n.flushTentative()
		}
		n.catchUp()
		return
	}
	if !voter {
		return
	}
	threshold := time.Duration(1+n.rank()) * n.opts.FailoverAfter
	if silent <= threshold {
		return
	}
	n.promote(silent)
}

// promote runs the candidacy protocol, a single-round Paxos-style
// prepare that write-fences a majority before anything takes over:
//
//  1. Poll every peer's status. Anyone announcing a newer epoch (or
//     the supposedly-dead primary answering, unless this node already
//     holds a durable vote above the epoch) aborts the candidacy, and
//     a reachable set below the vote threshold aborts before anything
//     is persisted — a minority partition never even starts a ballot:
//     it stays a backup and (if enabled) queues tentative writes.
//  2. Durably promise the new epoch to itself, then collect votes
//     (POST /v1/repl/prepare) until votes+self reach a majority of the
//     membership. Every granter persists the promise and rejects
//     appends/heartbeats below the new epoch from that moment — so any
//     write acked at quorum under the old epoch is already durable on
//     some granter, and no further old-epoch write can reach quorum.
//     In a two-node cluster the survivor's own durable vote is the
//     fence (it sits in every quorum); epoch fencing resolves the
//     symmetric-partition race at heal time.
//  3. Pull any frames a granter holds beyond this node's log, using
//     the positions each grant reported as of its fence — by majority
//     intersection that covers every quorum-acked write.
//  4. Bump and persist the epoch, become primary, merge the local
//     tentative backlog through the detector, and announce.
//
// An aborted candidacy may leave the durable promise behind; that is
// safe (promises only fence, they never ack) and live: the next ballot
// — here or on a peer — simply opens above it.
func (n *Node) promote(silent time.Duration) {
	begin := time.Now()
	n.mu.Lock()
	if n.role != RoleBackup || n.dirty || n.removed || !n.isVoterLocked(n.self.ID) {
		n.mu.Unlock()
		return
	}
	epoch := n.epoch
	oldPrimary := n.primaryID
	newEpoch := n.epoch + 1
	if n.promised >= newEpoch {
		// A spent ballot (ours, or a vote granted to a candidate that
		// died) floors the next one: promised epochs are never reused.
		newEpoch = n.promised + 1
	}
	// With a standing vote above the epoch, the cluster is mid-election:
	// the old primary answering status no longer vouches for a healthy
	// topology, so skip the alive-abort below or the election wedges.
	wedged := n.promised > n.epoch
	voters, _ := n.remotePeersLocked()
	voterCount := n.voterCountLocked()
	needVotes := n.quorumLocked()
	n.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), n.opts.FailoverAfter)
	defer cancel()

	type polled struct {
		peer Peer
		st   Status
	}
	var pmu sync.Mutex
	var reachable []polled
	var wg sync.WaitGroup
	for _, p := range voters {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st Status
			if err := n.contain(func() error { return n.getPeer(ctx, p, "/v1/repl/status", &st) }); err != nil {
				return
			}
			pmu.Lock()
			reachable = append(reachable, polled{peer: p, st: st})
			pmu.Unlock()
		}()
	}
	wg.Wait()

	for _, r := range reachable {
		if r.st.Epoch > epoch || (r.st.Epoch == epoch && r.st.Primary != oldPrimary) {
			// Someone already moved on; fold their claim in and stand down.
			n.observeEpoch(r.st.Epoch, r.st.Primary)
			return
		}
		if !wedged && r.peer.ID == oldPrimary && r.st.Role == RolePrimary.String() {
			// The primary is alive after all (the silence was on our
			// side); reset the detector instead of deposing it.
			n.touchPrimary(oldPrimary, nil)
			return
		}
	}

	// needVotes is the majority of the committed voter set, counting
	// this node; a two-voter cluster's survivor stands on its own
	// durable vote.
	if voterCount-1 < needVotes {
		needVotes = voterCount - 1
	}
	if 1+len(reachable) < needVotes {
		n.m.Add("repl.promote_aborts", 1)
		return
	}

	// Self-vote, durably, before asking anyone else: from this write on
	// this node rejects old-epoch appends even across a crash.
	n.mu.Lock()
	if n.role != RoleBackup || n.epoch != epoch || n.dirty || n.promised >= newEpoch {
		n.mu.Unlock()
		return
	}
	prevP, prevTo := n.promised, n.promisedTo
	n.promised, n.promisedTo = newEpoch, n.self.ID
	if err := saveEpoch(n.dir, n.epochStateLocked()); err != nil {
		n.promised, n.promisedTo = prevP, prevTo
		n.m.Add("repl.epoch_persist_errors", 1)
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()

	// The prepare round: collect durable votes. A refusal carries an
	// established claim to fold in; an unreachable peer simply does not
	// vote.
	type vote struct {
		peer Peer
		resp prepareResponse
	}
	var vmu sync.Mutex
	var votes []vote
	var vg sync.WaitGroup
	for _, p := range voters {
		p := p
		vg.Add(1)
		go func() {
			defer vg.Done()
			var resp prepareResponse
			err := n.contain(func() error {
				return n.postPeer(ctx, p, "/v1/repl/prepare", prepareRequest{Epoch: newEpoch, Candidate: n.self.ID}, &resp)
			})
			if err != nil {
				return
			}
			if !resp.Granted {
				n.observeEpoch(resp.Epoch, resp.Primary)
				return
			}
			vmu.Lock()
			votes = append(votes, vote{peer: p, resp: resp})
			vmu.Unlock()
		}()
	}
	vg.Wait()
	if 1+len(votes) < needVotes {
		n.m.Add("repl.promote_aborts", 1)
		return
	}

	// Catch up from the write-fenced majority: adopt any suffix a
	// granter reported beyond ours as of its fence. (A granter's later
	// appends were never acked — its post-grant handler withholds them.)
	for shardIdx := 0; shardIdx < n.router.Shards(); shardIdx++ {
		st := n.router.Store(shardIdx)
		best := Peer{}
		var bestLSN uint64
		for _, v := range votes {
			if shardIdx < len(v.resp.LSNs) && v.resp.LSNs[shardIdx] > bestLSN {
				bestLSN = v.resp.LSNs[shardIdx]
				best = v.peer
			}
		}
		if best.ID == "" || bestLSN <= st.LSN() {
			continue
		}
		if err := n.pullSince(ctx, best, shardIdx, st); err != nil {
			// Without the most advanced fenced log this node cannot
			// guarantee the quorum-ack invariant; abort and let the next
			// tick (or a better-positioned peer) retry above this ballot.
			n.m.Add("repl.promote_aborts", 1)
			return
		}
	}

	if err := faultinject.Fire("repl.promote"); err != nil {
		n.m.Add("repl.promote_aborts", 1)
		return
	}

	// The newest committed roster among the granters. A membership
	// revision commits against a majority of its NEW voter set — a set
	// this candidate may sit outside of — so the candidate's own copy can
	// be behind a quorum-committed change it never received. The prepare
	// majority intersects every single-change commit majority, so the
	// latest committed revision is guaranteed to be present among the
	// granters; anything newer that reached no quorum was never
	// acknowledged and may be discarded.
	var granterMS *memberState
	for _, v := range votes {
		ms := v.resp.Members
		if ms == nil || ms.validate() != nil {
			continue
		}
		if granterMS == nil || ms.newer(*granterMS) {
			granterMS = ms
		}
	}

	n.mu.Lock()
	if n.role != RoleBackup || n.epoch != epoch || n.dirty ||
		n.promised != newEpoch || n.promisedTo != n.self.ID {
		n.mu.Unlock()
		return
	}
	if granterMS != nil && granterMS.newer(n.members) {
		// Adopt it durably BEFORE re-stamping anything under newEpoch:
		// re-stamping the stale local roster would make (newEpoch, oldRev)
		// outrank (oldEpoch, newRev) and anti-entropy would roll the
		// committed change back cluster-wide — resurrecting a removed
		// node, or demoting a promoted voter.
		if err := saveMembers(n.dir, *granterMS); err != nil {
			n.m.Add("repl.member_commit_errors", 1)
			n.m.Add("repl.promote_aborts", 1)
			n.mu.Unlock()
			return
		}
		n.members = granterMS.clone()
		n.m.Add("repl.member_installs", 1)
	}
	if _, present := n.members.find(n.self.ID); !present {
		// The adopted roster removed this node while it was partitioned:
		// it must not lead. The durable promise it leaves behind only
		// fences; the surviving voters elect above it.
		n.removed = true
		n.m.Add("repl.promote_aborts", 1)
		n.mu.Unlock()
		return
	}
	if !n.isVoterLocked(n.self.ID) {
		// Demoted to learner by the adopted roster: stand down.
		n.m.Add("repl.promote_aborts", 1)
		n.mu.Unlock()
		return
	}
	// Re-count the votes against the (possibly adopted) roster: a roster
	// that grew the voter set can invalidate the majority counted above,
	// and a granter no longer voting must not count.
	got := 1
	for _, v := range votes {
		if n.isVoterLocked(v.peer.ID) {
			got++
		}
	}
	need := n.quorumLocked()
	if vc := n.voterCountLocked(); vc-1 < need {
		need = vc - 1
	}
	if got < need {
		n.m.Add("repl.promote_aborts", 1)
		n.mu.Unlock()
		return
	}
	n.epoch = newEpoch
	n.primaryID = n.self.ID
	n.role = RolePrimary
	n.promotedAt = time.Now()
	if err := saveEpoch(n.dir, n.epochStateLocked()); err != nil {
		// Without a durable epoch claim this node must not lead: a
		// restart would rejoin under the old epoch and split the brain.
		// The durable promise stays — the next ballot opens above it.
		n.epoch = epoch
		n.primaryID = oldPrimary
		n.role = RoleBackup
		n.m.Add("repl.epoch_persist_errors", 1)
		n.mu.Unlock()
		return
	}
	n.promised, n.promisedTo = 0, "" // the vote is spent: the epoch holds the fence now
	// Re-stamp the adopted committed roster under the new epoch: from
	// here on it outranks any revision a deposed primary half-committed
	// under the old one, however high that revision counted — such a
	// revision reached no quorum (the granter adoption above would have
	// carried it otherwise), so no client was ever told it held. Failure
	// is only a lost optimization (heartbeat anti-entropy re-pushes on
	// the next tick).
	n.members = n.members.clone()
	n.members.Epoch = newEpoch
	if err := saveMembers(n.dir, n.members); err != nil {
		n.m.Add("repl.member_commit_errors", 1)
	}
	tent := n.tent
	n.tent = nil
	n.publishStateLocked()
	n.mu.Unlock()
	n.m.Add("repl.promotions", 1)
	n.m.Timer("repl.promotion").Observe(silent + time.Since(begin))

	// The backlog this node queued while disconnected goes through the
	// same detector-arbitrated merge a remote log would.
	if len(tent) > 0 {
		n.recordOutcomes(n.mergeLocal(context.Background(), tent))
	}
	n.sendHeartbeats()
}

// catchUp is the backup's anti-entropy loop: every heartbeat announces
// the primary's per-shard positions, and a backup that finds itself
// behind one — it missed a ship while the primary reached quorum
// through other peers — pulls the gap itself instead of waiting for
// the next write to re-ship it.
func (n *Node) catchUp() {
	n.mu.Lock()
	primaryID := n.primaryID
	announced := append([]uint64(nil), n.peerLSNs[primaryID]...)
	n.mu.Unlock()
	if primaryID == n.self.ID || len(announced) == 0 {
		return
	}
	primary := n.peerByID(primaryID)
	var ctx context.Context
	var cancel context.CancelFunc
	for shardIdx := 0; shardIdx < n.router.Shards() && shardIdx < len(announced); shardIdx++ {
		st := n.router.Store(shardIdx)
		if st.LSN() >= announced[shardIdx] {
			continue
		}
		if ctx == nil {
			ctx, cancel = context.WithTimeout(context.Background(), n.opts.FailoverAfter)
			defer cancel()
		}
		if err := n.pullSince(ctx, primary, shardIdx, st); err != nil {
			return // next tick retries
		}
		n.m.Add("repl.catchups", 1)
	}
}

// pullSince brings one local shard up to peer's log via anti-entropy:
// bounded pages of frames while the peer's retained log still reaches
// back to the local LSN, the chunked full-state transfer once it does
// not.
func (n *Node) pullSince(ctx context.Context, p Peer, shardIdx int, st *store.Store) error {
	for {
		var resp sinceResponse
		if err := n.getPeer(ctx, p, fmt.Sprintf("/v1/repl/since/%d/%d", shardIdx, st.LSN()), &resp); err != nil {
			return err
		}
		if resp.Reset {
			return n.pullState(ctx, p, shardIdx, st, false)
		}
		if len(resp.Frames) == 0 {
			return nil
		}
		// Pulled frames start past the local LSN, so no overlap floor is
		// needed here.
		if _, err := st.ApplyFrames(ctx, resp.Frames, 0); err != nil {
			return err
		}
		if st.LSN() >= resp.LSN && !resp.More {
			return nil
		}
	}
}

// resync is the fenced path: replace every shard wholesale from the
// current primary, then clear the dirty flag. Runs on the monitor tick
// until it succeeds; an interrupted transfer resumes from the store's
// durable progress record instead of restarting, so even a state larger
// than one tick's budget converges across ticks.
func (n *Node) resync() {
	primary := n.Primary()
	if primary.ID == "" {
		return
	}
	if primary.ID == n.self.ID {
		// Degenerate persisted state (dirty but self-primary): nothing
		// to resync from; reclaim the role.
		n.mu.Lock()
		n.dirty = false
		n.role = RolePrimary
		if err := saveEpoch(n.dir, n.epochStateLocked()); err != nil {
			n.m.Add("repl.epoch_persist_errors", 1)
		}
		n.publishStateLocked()
		n.mu.Unlock()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.opts.FailoverAfter)
	defer cancel()
	for shardIdx := 0; shardIdx < n.router.Shards(); shardIdx++ {
		if err := n.pullState(ctx, primary, shardIdx, n.router.Store(shardIdx), true); err != nil {
			n.m.Add("repl.resync_errors", 1)
			return // next tick resumes from the progress record
		}
	}
	n.mu.Lock()
	n.dirty = false
	n.lastContact = time.Now()
	if err := saveEpoch(n.dir, n.epochStateLocked()); err != nil {
		n.m.Add("repl.epoch_persist_errors", 1)
	}
	n.mu.Unlock()
	n.m.Add("repl.resyncs", 1)
}
