// Package replica turns the sharded document store into an N-node
// primary/backup replicated service over HTTP, with the paper's
// commute-vs-conflict theory deployed as the replication protocol
// itself.
//
// One node is the primary at any epoch; the rest are backups. The
// primary commits writes to its local sharded store, ships the
// committed WAL frames to every backup (POST /v1/repl/append, CRC
// re-verified on receipt), and acknowledges the client only once the
// configured replication level — local, quorum, or all — holds the
// frames durably. Backups serve reads with an explicit staleness bound
// and persist the replication epoch, so a deposed primary is fenced
// the moment it rejoins: every replication RPC carries the epoch, and
// a node that hears a newer one adopts it (demoting itself if it was
// primary and marking its store dirty for full-state resync — its
// unreplicated tail is exactly the suffix no client was quorum-acked).
//
// Failure handling is heartbeat-driven: backups watch for primary
// silence, stagger their candidacies by rank, confirm they can reach a
// quorum (a fully partitioned backup never promotes — it goes
// tentative instead), pull any frames a surviving peer holds beyond
// their own log (so nothing quorum-acknowledged is lost), then bump
// the epoch, persist it, and take over. Every replication RPC retries
// with capped exponential backoff plus jitter, and every edge carries
// a named faultinject site: repl.ship, repl.ack, repl.heartbeat,
// repl.promote, and repl.partition (plus repl.partition.<node> for
// isolating one node of an in-process cluster).
//
// Disconnected backups may accept optimistic ("tentative") updates in
// the Bayou style: the ops queue locally with the BaseLSN window the
// client observed, and at merge — when the primary is reachable again,
// or the backup itself promotes — each op is re-run through the
// conflict detector's admission check. Commuting ops reorder silently
// into the committed log; conflicting ops are rejected carrying the
// same machine-readable conflict envelope a live 409 carries. Since
// all committed state flows through a single primary log per epoch,
// every node converges to the same detector-arbitrated order.
package replica

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/shard"
	"xmlconflict/internal/store"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/telemetry/span"
)

// Role is a node's current position in the replication topology.
type Role int

const (
	// RoleBackup applies shipped frames and serves bounded-staleness
	// reads; writes are redirected (or queued tentatively).
	RoleBackup Role = iota
	// RolePrimary owns the committed log for the current epoch.
	RolePrimary
)

// String names the role as it appears in /v1/repl/status.
func (r Role) String() string {
	if r == RolePrimary {
		return "primary"
	}
	return "backup"
}

// AckLevel is how many nodes must hold a write durably before the
// client is acknowledged.
type AckLevel int

const (
	// AckLocal acknowledges after the primary's own WAL append; frames
	// still ship to backups asynchronously.
	AckLocal AckLevel = iota
	// AckQuorum acknowledges once a majority of the cluster (including
	// the primary) holds the frames — the level the failover invariant
	// protects.
	AckQuorum
	// AckAll acknowledges only when every peer holds the frames.
	AckAll
)

// String names the level as it appears in flags.
func (a AckLevel) String() string {
	switch a {
	case AckQuorum:
		return "quorum"
	case AckAll:
		return "all"
	}
	return "local"
}

// ParseAckLevel maps a -repl-ack flag value.
func ParseAckLevel(s string) (AckLevel, error) {
	switch s {
	case "", "local":
		return AckLocal, nil
	case "quorum":
		return AckQuorum, nil
	case "all":
		return AckAll, nil
	}
	return 0, fmt.Errorf("unknown ack level %q (want local, quorum, or all)", s)
}

// Peer names one cluster member.
type Peer struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Options configures a replica node.
type Options struct {
	// NodeID is this node's name; it must appear in Peers.
	NodeID string
	// Peers is the full cluster membership, including this node. On a
	// fresh data directory, Peers[0] is the initial primary.
	Peers []Peer
	// Ack is the replication level client writes wait for.
	Ack AckLevel
	// HeartbeatEvery is the primary's heartbeat cadence and the
	// backups' detection tick (default 100ms).
	HeartbeatEvery time.Duration
	// FailoverAfter is how long a backup tolerates primary silence
	// before standing for promotion; candidacies stagger by rank so
	// the first backup moves first (default 10 heartbeats).
	FailoverAfter time.Duration
	// StalenessBound is how stale a backup read may be (time since the
	// last primary contact) before the node refuses it (default 5s).
	StalenessBound time.Duration
	// Tentative lets a disconnected backup queue optimistic writes for
	// detector-arbitrated merge instead of refusing them.
	Tentative bool
	// Learner boots this node as a non-voting learner joining an
	// existing cluster: Peers must list at least one established node
	// (the learner's best guess at the roster), and the node stays a
	// learner until a committed membership revision — pushed by the
	// live primary after an admin join — says otherwise. Ignored when
	// the data dir already holds a committed membership.
	Learner bool
	// Metrics receives repl.* series; nil gets a private registry.
	Metrics *telemetry.Metrics
	// Client performs replication RPCs; nil gets a 2s-timeout client.
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 100 * time.Millisecond
	}
	if o.FailoverAfter <= 0 {
		o.FailoverAfter = 10 * o.HeartbeatEvery
	}
	if o.StalenessBound <= 0 {
		o.StalenessBound = 5 * time.Second
	}
	if o.Metrics == nil {
		o.Metrics = telemetry.New()
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 2 * time.Second}
	}
	return o
}

// NotPrimaryError redirects a write submitted to a backup: the caller
// should retry against (or proxy to) Primary.
type NotPrimaryError struct {
	Primary Peer
	Epoch   uint64
}

func (e *NotPrimaryError) Error() string {
	if e.Primary.ID == "" {
		return "replica: not the primary (no primary known)"
	}
	return fmt.Sprintf("replica: not the primary (epoch %d primary is %s at %s)", e.Epoch, e.Primary.ID, e.Primary.URL)
}

// FencedError reports that this node learned of a newer epoch while
// acting as primary: the write that observed it must not be
// acknowledged.
type FencedError struct {
	Epoch   uint64 // the newer epoch observed
	Primary string
}

func (e *FencedError) Error() string {
	if e.Primary == "" {
		return fmt.Sprintf("replica: fenced by epoch %d (election in progress)", e.Epoch)
	}
	return fmt.Sprintf("replica: fenced by epoch %d (primary %s)", e.Epoch, e.Primary)
}

// AckError reports that the configured replication level could not be
// reached before the request gave up; the write is committed locally
// but was NOT acknowledged at the requested level.
type AckError struct {
	Need int // remote acks required
	Got  int
}

func (e *AckError) Error() string {
	return fmt.Sprintf("replica: write reached %d of %d required backup acks", e.Got, e.Need)
}

// peerShard serializes shipping to one (peer, shard) stream and tracks
// the highest LSN that peer has durably acknowledged for the shard.
// acked is guarded by mu, held across the whole ship attempt.
type peerShard struct {
	mu    sync.Mutex
	acked uint64
}

// resyncMark records that one shard's state at or below LSN was
// imported wholesale from a primary's own export — the provenance that
// lets the store accept overlapping re-shipped frames from that same
// (epoch, primary) without retained frames to compare against (an
// import empties the local log). Any other stream's overlaps must still
// prove byte-identity or force a resync.
type resyncMark struct {
	epoch   uint64
	primary string
	lsn     uint64
}

// noteImport records a completed full-state import's provenance.
func (n *Node) noteImport(shardIdx int, epoch uint64, primary string, lsn uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if shardIdx >= 0 && shardIdx < len(n.resyncBase) {
		n.resyncBase[shardIdx] = resyncMark{epoch: epoch, primary: primary, lsn: lsn}
	}
}

// Node is one replica: a shard.Router plus the replication state
// machine. All methods are safe for concurrent use.
type Node struct {
	router *shard.Router
	opts   Options
	m      *telemetry.Metrics
	dir    string
	self   Peer
	hc     *http.Client

	// streams[peerID][shard] serializes shipping per (peer, shard);
	// entries are created on demand as the committed membership grows
	// and the inner peerShard carries its own lock.
	streamsMu sync.Mutex
	streams   map[string][]*peerShard

	// inc is this node's incarnation token, fresh per process: merge
	// dedup keys tentative ops by (node, inc, seq) so a restarted origin
	// whose seq counter rewound cannot collide with its former self.
	inc uint64

	mu          sync.Mutex
	members     memberState // committed roster; quorum math reads this, never opts.Peers
	removed     bool        // this node left (or was removed from) the committed membership
	epoch       uint64
	role        Role
	primaryID   string
	promised    uint64    // durable election vote: reject appends/heartbeats below this epoch
	promisedTo  string    // the candidate the vote went to (idempotent re-grants)
	dirty       bool      // demoted with an unreplicated tail: full resync needed
	lastContact time.Time // backup: last heartbeat/append from the primary
	promotedAt  time.Time
	peerLSNs    map[string][]uint64 // latest per-shard LSNs heard from each peer
	resyncBase  []resyncMark        // per-shard provenance of the last full-state import
	tent        []TentativeOp
	tentSeq     uint64
	merges      []MergeOutcome
	closed      bool

	// mergeMu serializes detector-arbitrated merges on the primary, so a
	// retried batch observes the outcomes of the in-flight attempt it is
	// retrying instead of racing it; merged/mergedHi (under mu) remember
	// each origin incarnation's applied ops for idempotent replay.
	mergeMu  sync.Mutex
	merged   map[string]map[uint64]MergeOutcome
	mergedHi map[string]uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// Open loads (or initializes) a replica node over a sharded store
// rooted at dir. The replication epoch is persisted in dir alongside
// the shard manifest; a corrupt or half-written epoch file refuses to
// open rather than rejoin the cluster under a guessed epoch.
func Open(dir string, shardOpts shard.Options, opts Options) (*Node, error) {
	opts = opts.withDefaults()
	if opts.NodeID == "" {
		return nil, fmt.Errorf("replica: empty node id")
	}
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("replica: no peers configured")
	}
	var self Peer
	found := false
	seen := map[string]bool{}
	for _, p := range opts.Peers {
		if p.ID == "" {
			return nil, fmt.Errorf("replica: peer with empty id")
		}
		if seen[p.ID] {
			return nil, fmt.Errorf("replica: duplicate peer id %q", p.ID)
		}
		seen[p.ID] = true
		if p.ID == opts.NodeID {
			self = p
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("replica: node id %q not in peer list", opts.NodeID)
	}
	if opts.Learner && len(opts.Peers) < 2 {
		return nil, fmt.Errorf("replica: a learner must list at least one established peer")
	}

	router, err := shard.Open(dir, shardOpts)
	if err != nil {
		return nil, err
	}
	n := &Node{
		router:   router,
		opts:     opts,
		m:        opts.Metrics,
		dir:      dir,
		self:     self,
		hc:       opts.Client,
		inc:      rand.Uint64(),
		streams:  map[string][]*peerShard{},
		peerLSNs: map[string][]uint64{},
		merged:   map[string]map[uint64]MergeOutcome{},
		mergedHi: map[string]uint64{},
		stop:     make(chan struct{}),
	}
	n.resyncBase = make([]resyncMark, router.Shards())

	// The committed roster wins over the boot flags the moment it
	// exists; a fresh directory derives revision 1 from opts.Peers (a
	// learner marks itself non-voting and trusts the primary to push
	// the real roster after the admin join).
	ms, haveMs, err := loadMembers(dir)
	if err != nil {
		router.Close()
		return nil, err
	}
	if haveMs {
		if _, ok := ms.find(opts.NodeID); !ok {
			router.Close()
			return nil, fmt.Errorf("replica: node %q is not in the committed membership (rev %d) — it has left or been removed; re-init with a fresh data directory to rejoin", opts.NodeID, ms.Rev)
		}
	} else {
		ms = memberState{Version: 1, Epoch: 1, Rev: 1}
		for _, p := range opts.Peers {
			ms.Members = append(ms.Members, Member{ID: p.ID, URL: p.URL, Learner: opts.Learner && p.ID == opts.NodeID})
		}
		if err := saveMembers(dir, ms); err != nil {
			router.Close()
			return nil, err
		}
	}
	n.members = ms
	if m, ok := ms.find(opts.NodeID); ok && m.URL != "" {
		n.self = Peer{ID: m.ID, URL: m.URL}
	}

	ep, haveEp, err := loadEpoch(dir)
	if err != nil {
		router.Close()
		return nil, err
	}
	if !haveEp {
		// A fresh voter cluster elects Peers[0]; a fresh learner follows
		// the first established peer until a heartbeat corrects it.
		first := opts.Peers[0].ID
		if opts.Learner {
			for _, p := range opts.Peers {
				if p.ID != opts.NodeID {
					first = p.ID
					break
				}
			}
		}
		ep = epochState{Version: 1, Epoch: 1, Primary: first}
		if err := saveEpoch(dir, ep); err != nil {
			router.Close()
			return nil, err
		}
	}
	// The epoch may legitimately name a primary or candidate outside
	// the committed roster (it was removed while this node was down);
	// the failure detector elects a replacement from the roster, so no
	// validation against it here.
	n.epoch = ep.Epoch
	n.primaryID = ep.Primary
	n.promised = ep.Promised
	n.promisedTo = ep.PromisedTo
	n.dirty = ep.Dirty
	if ep.Primary == opts.NodeID && !ep.Dirty {
		n.role = RolePrimary
	} else {
		n.role = RoleBackup
	}
	n.lastContact = time.Now()
	n.publishState()

	// The loop always runs: a solo node can grow its cluster through
	// an admin join, at which point it needs heartbeats immediately.
	n.wg.Add(1)
	go n.loop()
	return n, nil
}

// Router exposes the underlying sharded store (reads, listing,
// diagnostics).
func (n *Node) Router() *shard.Router { return n.router }

// Self returns this node's peer record.
func (n *Node) Self() Peer { return n.self }

// ClusterSize returns the committed membership count, including this
// node and any learners.
func (n *Node) ClusterSize() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.members.Members)
}

// voterCountLocked counts the committed voting members; the caller
// holds n.mu.
func (n *Node) voterCountLocked() int { return n.members.voters() }

// quorumLocked is the majority of the committed voter set; the caller
// holds n.mu.
func (n *Node) quorumLocked() int { return n.voterCountLocked()/2 + 1 }

// quorum is the majority of the committed voter set.
func (n *Node) quorum() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.quorumLocked()
}

// isVoterLocked reports whether id is a committed voting member; the
// caller holds n.mu.
func (n *Node) isVoterLocked(id string) bool {
	m, ok := n.members.find(id)
	return ok && !m.Learner
}

// needAcksLocked is how many VOTERS (including the primary itself)
// must hold a write for the configured level; learners never count.
// The caller holds n.mu.
func (n *Node) needAcksLocked() int {
	switch n.opts.Ack {
	case AckQuorum:
		return n.quorumLocked()
	case AckAll:
		return n.voterCountLocked()
	}
	return 1
}

// remotePeersLocked splits the committed roster (self excluded) into
// voters and learners; the caller holds n.mu.
func (n *Node) remotePeersLocked() (voters, learners []Peer) {
	for _, m := range n.members.Members {
		if m.ID == n.self.ID {
			continue
		}
		p := Peer{ID: m.ID, URL: m.URL}
		if m.Learner {
			learners = append(learners, p)
		} else {
			voters = append(voters, p)
		}
	}
	return voters, learners
}

// remotePeers snapshots every committed remote member.
func (n *Node) remotePeers() []Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	voters, learners := n.remotePeersLocked()
	return append(voters, learners...)
}

// streamFor returns (creating on demand) the shipping stream for one
// (peer, shard) pair — membership is dynamic, so streams are too.
func (n *Node) streamFor(id string, shardIdx int) *peerShard {
	n.streamsMu.Lock()
	defer n.streamsMu.Unlock()
	ps := n.streams[id]
	if ps == nil {
		ps = make([]*peerShard, n.router.Shards())
		for i := range ps {
			ps[i] = &peerShard{}
		}
		n.streams[id] = ps
	}
	return ps[shardIdx]
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Epoch returns the node's current epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Primary returns the peer this node currently believes is primary.
func (n *Node) Primary() Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peerByIDLocked(n.primaryID)
}

// peerByIDLocked resolves an id against the committed membership (zero
// Peer when unknown); the caller holds n.mu.
func (n *Node) peerByIDLocked(id string) Peer {
	if id == n.self.ID {
		return n.self
	}
	if m, ok := n.members.find(id); ok {
		return Peer{ID: m.ID, URL: m.URL}
	}
	return Peer{}
}

// peerByID is peerByIDLocked for callers not holding n.mu.
func (n *Node) peerByID(id string) Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peerByIDLocked(id)
}

// Staleness reports how stale this node's reads are: zero for the
// primary, time since last primary contact for a backup, and ok=false
// when that exceeds the configured bound.
func (n *Node) Staleness() (time.Duration, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RolePrimary {
		return 0, true
	}
	lag := time.Since(n.lastContact)
	return lag, lag <= n.opts.StalenessBound
}

// StalenessBound returns the configured bound.
func (n *Node) StalenessBound() time.Duration { return n.opts.StalenessBound }

// KnownShardLSN is the highest LSN this node knows exists for one
// shard: its own position, or — on a backup — the primary's
// last-announced position when that is higher. A read-your-writes gate
// uses it to reject an X-Min-LSN far beyond anything the cluster has
// committed immediately, instead of burning the full wait budget on a
// position that cannot arrive.
func (n *Node) KnownShardLSN(shardIdx int) uint64 {
	if shardIdx < 0 || shardIdx >= n.router.Shards() {
		return 0
	}
	own := n.router.Store(shardIdx).LSN()
	n.mu.Lock()
	defer n.mu.Unlock()
	if lsns, ok := n.peerLSNs[n.primaryID]; ok && shardIdx < len(lsns) && lsns[shardIdx] > own {
		return lsns[shardIdx]
	}
	return own
}

// publishState refreshes the role/epoch gauges.
func (n *Node) publishState() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.publishStateLocked()
}

// publishStateLocked refreshes the role/epoch gauges; the caller holds
// n.mu (role and epoch are mutated under it).
func (n *Node) publishStateLocked() {
	role := int64(0)
	if n.role == RolePrimary {
		role = 1
	}
	n.m.Gauge("repl.primary").Set(role)
	n.m.Gauge("repl.epoch").Set(int64(n.epoch))
}

// epochStateLocked snapshots the node's durable fencing record; the
// caller holds n.mu. The election promise is carried only while it
// outranks the established epoch — once the epoch catches up the vote
// is spent.
func (n *Node) epochStateLocked() epochState {
	ep := epochState{Version: 1, Epoch: n.epoch, Primary: n.primaryID, Dirty: n.dirty}
	if n.promised > n.epoch {
		ep.Promised, ep.PromisedTo = n.promised, n.promisedTo
	}
	return ep
}

// observeEpoch folds a remotely-heard (epoch, primary) claim into the
// local state. It returns ok=false when the claim is stale (the caller
// should answer with the local epoch so the stale sender fences
// itself). Hearing a newer epoch adopts it immediately — demoting a
// current primary and marking its store dirty, since its log may hold
// an unreplicated (never quorum-acked) tail that full-state resync
// must discard. An equal-epoch claim naming a different primary is a
// promotion race; the lexicographically smaller node id wins
// deterministically on every node.
func (n *Node) observeEpoch(epoch uint64, primary string) (ok bool) {
	if primary == "" {
		return true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case epoch < n.epoch:
		return false
	case epoch < n.promised:
		// This node durably voted for a higher epoch: anything below the
		// promise is write-fenced, no matter whose claim it is.
		return false
	case epoch == n.epoch:
		if primary == n.primaryID {
			return true
		}
		if primary > n.primaryID {
			return false
		}
	}
	n.adoptLocked(epoch, primary)
	return true
}

// adoptLocked installs a newer (or tie-break-winning) epoch claim; the
// caller holds n.mu.
func (n *Node) adoptLocked(epoch uint64, primary string) {
	wasPrimary := n.role == RolePrimary
	n.epoch = epoch
	n.primaryID = primary
	if n.promised <= n.epoch {
		// The vote is spent: the election it fenced has been decided at
		// or above it.
		n.promised, n.promisedTo = 0, ""
	}
	if primary == n.self.ID {
		n.role = RolePrimary
	} else {
		n.role = RoleBackup
		n.lastContact = time.Now()
	}
	if wasPrimary && n.role == RoleBackup {
		// Fenced: anything this node committed past the new primary's
		// log was never acknowledged at quorum. Mark the store dirty so
		// the monitor replaces it wholesale before frames apply again.
		n.dirty = true
		n.m.Add("repl.fenced", 1)
	}
	if err := saveEpoch(n.dir, n.epochStateLocked()); err != nil {
		n.m.Add("repl.epoch_persist_errors", 1)
	}
	n.publishStateLocked()
}

// CreateCtx registers a document through the replicated write path.
func (n *Node) CreateCtx(ctx context.Context, id, xml string) (store.Result, error) {
	return n.write(ctx, id, func() (store.Result, error) {
		return n.router.CreateCtx(ctx, id, xml)
	})
}

// DropCtx removes a document through the replicated write path.
func (n *Node) DropCtx(ctx context.Context, id string) (store.Result, error) {
	return n.write(ctx, id, func() (store.Result, error) {
		return n.router.DropCtx(ctx, id)
	})
}

// SubmitCtx schedules one operation through the replicated write path;
// reads never replicate (the caller gates them on Staleness).
func (n *Node) SubmitCtx(ctx context.Context, id string, op store.Op) (store.Result, error) {
	if op.Kind == "read" {
		return n.router.SubmitCtx(ctx, id, op)
	}
	return n.write(ctx, id, func() (store.Result, error) {
		return n.router.SubmitCtx(ctx, id, op)
	})
}

// write runs a local commit as primary, then ships the committed
// frames and waits for the configured replication level.
func (n *Node) write(ctx context.Context, doc string, commit func() (store.Result, error)) (store.Result, error) {
	n.mu.Lock()
	if n.role != RolePrimary || n.removed {
		err := &NotPrimaryError{Primary: n.peerByIDLocked(n.primaryID), Epoch: n.epoch}
		n.mu.Unlock()
		return store.Result{}, err
	}
	epoch := n.epoch
	n.mu.Unlock()

	res, err := commit()
	if err != nil {
		return res, err
	}
	shardIdx := n.router.ShardFor(doc)
	if err := n.contain(func() error { return n.replicate(ctx, epoch, shardIdx, res.LSN) }); err != nil {
		return res, err
	}
	return res, nil
}

// replicate ships the shard's log through res.LSN to every peer and
// blocks until the configured level is reached. AckLocal ships
// asynchronously.
func (n *Node) replicate(ctx context.Context, epoch uint64, shardIdx int, lsn uint64) error {
	sp := span.FromContext(ctx).Child("repl.ack")
	if sp != nil {
		sp.Set("repl.epoch", epoch)
		sp.Set("repl.shard", shardIdx)
		sp.Set("repl.lsn", lsn)
		sp.Set("repl.level", n.opts.Ack.String())
		defer sp.End()
	}
	if err := faultinject.Fire("repl.ack"); err != nil {
		sp.Fail(err)
		return err
	}
	n.mu.Lock()
	voters, learners := n.remotePeersLocked()
	need := n.needAcksLocked() - 1 // the local commit already counts
	n.mu.Unlock()
	if len(voters)+len(learners) == 0 {
		return nil
	}
	// Learners receive every frame but never count toward an ack level:
	// ship to them asynchronously, always.
	n.shipAsync(learners, epoch, shardIdx, lsn)
	if need <= 0 {
		// Fire-and-forget shipping keeps backups fresh without holding
		// the client; the node's lifetime bounds the goroutines.
		n.shipAsync(voters, epoch, shardIdx, lsn)
		return nil
	}

	// shipTo retries a dead peer until its context expires, so a caller
	// with no deadline (a plain HTTP request) would park here forever —
	// one wedged writer per pool slot. The failure-detection budget
	// bounds the wait instead: a peer silent longer than FailoverAfter
	// is considered failed, and a write that cannot reach its ack level
	// by then is refused (AckError → 503 repl-ack), not parked.
	actx, acancel := context.WithTimeout(ctx, n.opts.FailoverAfter)
	defer acancel()
	results := make(chan error, len(voters))
	for _, p := range voters {
		p := p
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			results <- n.contain(func() error { return n.shipTo(actx, p, epoch, shardIdx, lsn) })
		}()
	}
	got, failed := 0, 0
	var firstErr error
	for got < need && failed <= len(voters)-need {
		select {
		case err := <-results:
			if err == nil {
				got++
			} else {
				failed++
				if firstErr == nil {
					firstErr = err
				}
			}
		case <-actx.Done():
			if ctx.Err() != nil {
				err := fmt.Errorf("replica: %w while waiting for %d acks (got %d): %v", ctx.Err(), need, got, firstErr)
				sp.Fail(err)
				return err
			}
			err := fmt.Errorf("%w: no ack within the failure-detection budget", &AckError{Need: need, Got: got})
			if firstErr != nil {
				err = fmt.Errorf("%w: %v", err, firstErr)
			}
			sp.Fail(err)
			return err
		case <-n.stop:
			return fmt.Errorf("replica: node closing")
		}
	}
	if sp != nil {
		sp.Set("repl.acked", got+1)
	}
	if got < need {
		var fe *FencedError
		if errors.As(firstErr, &fe) {
			sp.Fail(firstErr)
			return firstErr
		}
		err := fmt.Errorf("%w: %v", &AckError{Need: need, Got: got}, firstErr)
		sp.Fail(err)
		return err
	}
	n.m.Add("repl.acked_writes", 1)
	return nil
}

// shipAsync ships fire-and-forget to a set of peers; the node's
// lifetime bounds the goroutines.
func (n *Node) shipAsync(peers []Peer, epoch uint64, shardIdx int, lsn uint64) {
	for _, p := range peers {
		p := p
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			sctx, cancel := context.WithTimeout(context.Background(), n.opts.FailoverAfter)
			defer cancel()
			n.contain(func() error { return n.shipTo(sctx, p, epoch, shardIdx, lsn) }) //nolint:errcheck // async best-effort
		}()
	}
}

// shipTo brings one peer's shard stream up to lsn, retrying transport
// failures with capped exponential backoff + jitter until ctx expires.
// The (peer, shard) stream lock serializes concurrent writers, so a
// later writer usually finds its LSN already acked by an earlier ship.
func (n *Node) shipTo(ctx context.Context, p Peer, epoch uint64, shardIdx int, lsn uint64) error {
	ps := n.streamFor(p.ID, shardIdx)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	st := n.router.Store(shardIdx)

	for attempt := 0; ; attempt++ {
		if ps.acked >= lsn {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("replica: ship to %s shard %d: %w", p.ID, shardIdx, err)
		}
		err := func() error {
			if err := faultinject.Fire("repl.ship"); err != nil {
				return err
			}
			// Past the retained log's reach, FramesSincePage still returns
			// the oldest retained page: a peer holding its predecessor
			// verifies the overlap and extends it, and one below it answers
			// with a gap until its own heartbeat-driven catch-up pulls the
			// state. A failed read is retried like a failed post.
			frames, _, _, err := st.FramesSincePage(ps.acked, maxSinceFrames, maxSinceBytes)
			if err != nil {
				return fmt.Errorf("replica: read shard %d frames for %s: %w", shardIdx, p.ID, err)
			}
			if len(frames) == 0 {
				return fmt.Errorf("replica: shard %d retains no frames to ship to %s", shardIdx, p.ID)
			}
			var resp appendResponse
			if err := n.postPeer(ctx, p, "/v1/repl/append", appendRequest{Epoch: epoch, Primary: n.self.ID, Shard: shardIdx, Frames: frames}, &resp); err != nil {
				return err
			}
			if !resp.OK(epoch) {
				return n.fencedBy(resp.Epoch, resp.Primary)
			}
			if resp.Diverged {
				// The peer is healing itself (full resync); keep backing
				// off rather than hammering it.
				return fmt.Errorf("replica: peer %s shard %d is resyncing", p.ID, shardIdx)
			}
			// A response LSN inside the page is the peer's verified
			// watermark: the highest shipped frame it positively holds
			// (applied, proven byte-identical to its own log, or covered by
			// a state import from this primary). One below the page is a
			// gap: the peer verified nothing, and its position may lower
			// our view but never raise it, or frames the peer never verified
			// would count toward an ack quorum. A gap that lowers nothing
			// leaves the peer to its state pull; back off meanwhile.
			if resp.LSN < frames[0].LSN && resp.LSN >= ps.acked {
				return fmt.Errorf("replica: peer %s shard %d at lsn %d is below the retained frames", p.ID, shardIdx, resp.LSN)
			}
			ps.acked = resp.LSN
			return nil
		}()
		if err != nil {
			var fe *FencedError
			if errors.As(err, &fe) {
				return err
			}
			n.m.Add("repl.ship_retries", 1)
			select {
			case <-time.After(backoff(attempt)):
			case <-ctx.Done():
				return fmt.Errorf("replica: ship to %s shard %d: %w (last: %v)", p.ID, shardIdx, ctx.Err(), err)
			case <-n.stop:
				return fmt.Errorf("replica: node closing")
			}
			continue
		}
		n.m.Add("repl.ships", 1)
	}
}

// contain converts a panic on a replication edge (a faultinject drill,
// or a real bug in RPC plumbing) into an error: replication must
// degrade to retry or an honest ack failure, never take the node down
// with it.
func (n *Node) contain(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			n.m.Add("repl.contained_panics", 1)
			err = fmt.Errorf("replica: contained panic: %v", r)
		}
	}()
	return fn()
}

// fencedBy records a newer epoch observed in a peer response and
// returns the FencedError the write path surfaces.
func (n *Node) fencedBy(epoch uint64, primary string) error {
	n.observeEpoch(epoch, primary)
	return &FencedError{Epoch: epoch, Primary: primary}
}

// backoff is the capped exponential retry delay with jitter: 10ms
// doubling to a 500ms cap, each delay uniformly jittered ±25%.
func backoff(attempt int) time.Duration {
	d := 10 * time.Millisecond
	for i := 0; i < attempt && d < 500*time.Millisecond; i++ {
		d *= 2
	}
	if d > 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	jitter := time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
	return d + jitter
}

// Status is the /v1/repl/status document.
type Status struct {
	Node         string              `json:"node"`
	Role         string              `json:"role"`
	Epoch        uint64              `json:"epoch"`
	Primary      string              `json:"primary"`
	Dirty        bool                `json:"dirty,omitempty"`
	Promised     uint64              `json:"promised,omitempty"`
	PromisedTo   string              `json:"promised_to,omitempty"`
	LSNs         []uint64            `json:"lsns"`
	StalenessMs  int64               `json:"staleness_ms"`
	Tentative    int                 `json:"tentative"`
	Peers        map[string][]uint64 `json:"peers,omitempty"`
	MembersEpoch uint64              `json:"members_epoch"`
	MembersRev   uint64              `json:"members_rev"`
	Members      []Member            `json:"members,omitempty"`
	Learner      bool                `json:"learner,omitempty"`
	Removed      bool                `json:"removed,omitempty"`
}

// Status snapshots the node's replication state.
func (n *Node) Status() Status {
	lsns := n.router.LSNs()
	n.mu.Lock()
	defer n.mu.Unlock()
	st := Status{
		Node:         n.self.ID,
		Role:         n.role.String(),
		Epoch:        n.epoch,
		Primary:      n.primaryID,
		Dirty:        n.dirty,
		LSNs:         lsns,
		Tentative:    len(n.tent),
		MembersEpoch: n.members.Epoch,
		MembersRev:   n.members.Rev,
		Members:      append([]Member(nil), n.members.Members...),
		Removed:      n.removed,
	}
	if m, ok := n.members.find(n.self.ID); ok {
		st.Learner = m.Learner
	}
	if n.promised > n.epoch {
		st.Promised, st.PromisedTo = n.promised, n.promisedTo
	}
	if n.role == RoleBackup {
		st.StalenessMs = time.Since(n.lastContact).Milliseconds()
	}
	if len(n.peerLSNs) > 0 {
		st.Peers = make(map[string][]uint64, len(n.peerLSNs))
		for id, l := range n.peerLSNs {
			st.Peers[id] = append([]uint64(nil), l...)
		}
	}
	return st
}

// Close stops the replication loops and closes the underlying store.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	close(n.stop)
	n.wg.Wait()
	return n.router.Close()
}
