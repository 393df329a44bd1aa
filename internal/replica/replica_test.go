package replica

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/shard"
	"xmlconflict/internal/store"
)

// swapHandler lets a test boot the HTTP listener before the node
// exists (peer URLs must be known at Open) and later "kill" a node by
// swapping its handler out.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "node down", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// cluster is an in-process replica cluster: every node a real *Node
// over its own temp dir, wired through real HTTP servers.
type cluster struct {
	t        *testing.T
	peers    []Peer
	dirs     map[string]string
	nodes    map[string]*Node
	handlers map[string]*swapHandler
	shards   shard.Options
	mutate   func(id string, o *Options)
}

// newCluster boots size nodes named "a", "b", ... with fast test
// timing over the shardOptsForTest layout. mutate (optional) adjusts
// each node's Options before Open.
func newCluster(t *testing.T, size int, mutate func(id string, o *Options)) *cluster {
	t.Helper()
	return newClusterWith(t, size, shardOptsForTest(), mutate)
}

// newClusterWith is newCluster with every node opening its shards
// under so.
func newClusterWith(t *testing.T, size int, so shard.Options, mutate func(id string, o *Options)) *cluster {
	t.Helper()
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	c := &cluster{
		t:        t,
		dirs:     map[string]string{},
		nodes:    map[string]*Node{},
		handlers: map[string]*swapHandler{},
		shards:   so,
		mutate:   mutate,
	}
	for i := 0; i < size; i++ {
		id := string(rune('a' + i))
		sh := &swapHandler{}
		srv := httptest.NewServer(sh)
		t.Cleanup(srv.Close)
		c.handlers[id] = sh
		c.dirs[id] = t.TempDir()
		c.peers = append(c.peers, Peer{ID: id, URL: srv.URL})
	}
	for _, p := range c.peers {
		c.start(p.ID)
	}
	t.Cleanup(func() {
		for _, n := range c.nodes {
			n.Close() //nolint:errcheck // test teardown
		}
	})
	return c
}

// start opens (or reopens) the node over its existing dir and plugs it
// into its listener.
func (c *cluster) start(id string) *Node {
	c.t.Helper()
	opts := Options{
		NodeID:         id,
		Peers:          c.peers,
		Ack:            AckQuorum,
		HeartbeatEvery: 10 * time.Millisecond,
		FailoverAfter:  80 * time.Millisecond,
		StalenessBound: time.Second,
	}
	if c.mutate != nil {
		c.mutate(id, &opts)
	}
	n, err := Open(c.dirs[id], c.shards, opts)
	if err != nil {
		c.t.Fatalf("open node %s: %v", id, err)
	}
	c.nodes[id] = n
	c.handlers[id].set(n.Handler())
	return n
}

// kill closes the node and takes its listener dark.
func (c *cluster) kill(id string) {
	c.t.Helper()
	c.handlers[id].set(nil)
	if n := c.nodes[id]; n != nil {
		if err := n.Close(); err != nil {
			c.t.Fatalf("close node %s: %v", id, err)
		}
	}
	delete(c.nodes, id)
}

// waitFor polls cond until it holds or the deadline passes.
func (c *cluster) waitFor(d time.Duration, what string, cond func() bool) {
	c.t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for id, n := range c.nodes {
		c.t.Logf("node %s: %+v", id, n.Status())
	}
	c.t.Fatalf("timed out waiting for %s", what)
}

// currentPrimary returns the live node that believes it is primary.
func (c *cluster) currentPrimary() *Node {
	for _, n := range c.nodes {
		if n.Role() == RolePrimary {
			return n
		}
	}
	return nil
}

// stablePrimary waits until the live nodes agree on one epoch with
// exactly one clean primary (a restarted deposed primary claims its
// stale role until fenced — the window where currentPrimary is
// ambiguous) and returns it.
func (c *cluster) stablePrimary(d time.Duration) *Node {
	c.t.Helper()
	var p *Node
	c.waitFor(d, "a single settled primary", func() bool {
		p = nil
		var epoch uint64
		for _, n := range c.nodes {
			st := n.Status()
			if st.Dirty {
				return false
			}
			if epoch == 0 {
				epoch = st.Epoch
			} else if st.Epoch != epoch {
				return false
			}
			if n.Role() == RolePrimary {
				if p != nil {
					return false
				}
				p = n
			}
		}
		return p != nil
	})
	return p
}

// digests returns doc's (lsn, digest) on node id, or ok=false.
func (c *cluster) digest(id, doc string) (string, bool) {
	info, err := c.nodes[id].Router().Get(doc)
	if err != nil {
		return "", false
	}
	return info.Digest, true
}

// shardOptsForTest is the layout every test node opens with (the
// manifest pins it, so reopen paths must match).
func shardOptsForTest() shard.Options { return shard.Options{Shards: 2} }

func insertOp(pattern, x string) store.Op {
	return store.Op{Kind: "insert", Pattern: pattern, X: x}
}

func TestShippingConvergesAtAckAll(t *testing.T) {
	c := newCluster(t, 3, func(id string, o *Options) { o.Ack = AckAll })
	ctx := context.Background()
	a := c.nodes["a"]
	if a.Role() != RolePrimary {
		t.Fatalf("fresh cluster primary = %v, want node a", c.currentPrimary())
	}
	if _, err := a.CreateCtx(ctx, "d", "<r><x/></r>"); err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := a.SubmitCtx(ctx, "d", insertOp("/r", fmt.Sprintf("<n i=\"%d\"/>", i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// AckAll returns only after every peer holds the frames durably: the
	// backups must match immediately, no settling wait.
	want, ok := c.digest("a", "d")
	if !ok {
		t.Fatal("doc missing on primary")
	}
	for _, id := range []string{"b", "c"} {
		got, ok := c.digest(id, "d")
		if !ok || got != want {
			t.Fatalf("node %s digest = %q ok=%v, want %q (ack=all must be synchronous)", id, got, ok, want)
		}
	}
}

// TestPullStateCatchesUpPartitionedBackup drives state transfer's one
// mover: a backup cut off while the primary's retained log rotated past
// it pulls the primary's snapshot file, chunk by chunk, once the
// partition heals, and the primary's write waits for that pull rather
// than pushing state itself.
func TestPullStateCatchesUpPartitionedBackup(t *testing.T) {
	so := shardOptsForTest()
	so.Store.SnapshotEvery = 4
	c := newClusterWith(t, 3, so, func(id string, o *Options) {
		o.Ack = AckAll
		// Each ship gets this budget: room for the backup's whole pull on
		// a slow disk, and no elections during the short partition.
		o.FailoverAfter = time.Second
	})
	ctx := context.Background()
	a := c.nodes["a"]
	if _, err := a.CreateCtx(ctx, "d", "<r/>"); err != nil {
		t.Fatalf("create: %v", err)
	}
	faultinject.Arm("repl.partition.c", faultinject.Fault{Kind: faultinject.KindError})
	for i := 0; i < 12; i++ {
		// c cannot ack, so ack=all fails; the write still commits on a.
		wctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		a.SubmitCtx(wctx, "d", insertOp("/r", fmt.Sprintf("<w i=\"%d\"/>", i))) //nolint:errcheck // the ack is expected to fail
		cancel()
	}
	faultinject.Disarm("repl.partition.c")
	if _, err := a.SubmitCtx(ctx, "d", insertOp("/r", "<healed/>")); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	want, _ := c.digest("a", "d")
	c.waitFor(5*time.Second, "healed backup to converge", func() bool {
		got, ok := c.digest("c", "d")
		return ok && got == want
	})
	if n := c.nodes["c"].m.Snapshot().Counter("repl.state_imports"); n == 0 {
		t.Fatal("backup converged without pulling the state")
	}
}

// TestFailoverMovesNoStateToCaughtUpBackup: a new primary's streams
// start knowing nothing of its peers, and its retained log no longer
// reaches LSN 0. A backup that already holds the whole log verifies the
// oldest retained page against its own and extends it; it must not be
// sent (or pull) the whole shard, and must never be judged diverged.
func TestFailoverMovesNoStateToCaughtUpBackup(t *testing.T) {
	so := shard.Options{Shards: 1}
	so.Store.SnapshotEvery = 8
	c := newClusterWith(t, 3, so, nil)
	ctx := context.Background()
	a := c.nodes["a"]
	if _, err := a.CreateCtx(ctx, "d", "<r/>"); err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 40; i++ {
		if _, err := a.SubmitCtx(ctx, "d", insertOp("/r", fmt.Sprintf("<n i=\"%d\"/>", i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	want, _ := c.digest("a", "d")
	c.waitFor(5*time.Second, "backups to converge before the failover", func() bool {
		for _, id := range []string{"b", "c"} {
			if got, ok := c.digest(id, "d"); !ok || got != want {
				return false
			}
		}
		return true
	})
	imports := map[string]int64{}
	for _, id := range []string{"b", "c"} {
		imports[id] = c.nodes[id].m.Snapshot().Counter("repl.state_imports")
	}

	c.kill("a")
	c.waitFor(5*time.Second, "a backup to promote", func() bool {
		p := c.currentPrimary()
		return p != nil && p.Epoch() > 1
	})
	p := c.currentPrimary()
	other := "b"
	if p.Self().ID == "b" {
		other = "c"
	}
	for i := 0; i < 3; i++ {
		if _, err := p.SubmitCtx(ctx, "d", insertOp("/r", fmt.Sprintf("<after i=\"%d\"/>", i))); err != nil {
			t.Fatalf("write %d on new primary %s: %v", i, p.Self().ID, err)
		}
	}
	want, _ = c.digest(p.Self().ID, "d")
	c.waitFor(5*time.Second, "the other backup to converge", func() bool {
		got, ok := c.digest(other, "d")
		return ok && got == want
	})
	snap := c.nodes[other].m.Snapshot()
	if n := snap.Counter("repl.state_imports"); n != imports[other] {
		t.Fatalf("backup %s imported state %d times across the failover, want none", other, n-imports[other])
	}
	if n := snap.Counter("repl.diverged"); n != 0 {
		t.Fatalf("backup %s went diverged %d times", other, n)
	}
}

func TestBackupRedirectsWrites(t *testing.T) {
	c := newCluster(t, 2, nil)
	b := c.nodes["b"]
	_, err := b.CreateCtx(context.Background(), "d", "<r/>")
	var np *NotPrimaryError
	if !errors.As(err, &np) {
		t.Fatalf("write on backup: %v, want NotPrimaryError", err)
	}
	if np.Primary.ID != "a" || np.Primary.URL == "" {
		t.Fatalf("redirect target = %+v, want node a with URL", np.Primary)
	}
	// Reads are served locally with bounded staleness.
	if lag, ok := b.Staleness(); !ok {
		t.Fatalf("fresh backup staleness %v not ok", lag)
	}
}

func TestQuorumToleratesOneDeadBackup(t *testing.T) {
	c := newCluster(t, 3, nil)
	ctx := context.Background()
	a := c.nodes["a"]
	if _, err := a.CreateCtx(ctx, "d", "<r/>"); err != nil {
		t.Fatalf("create: %v", err)
	}
	c.kill("c")
	for i := 0; i < 3; i++ {
		if _, err := a.SubmitCtx(ctx, "d", insertOp("/r", "<n/>")); err != nil {
			t.Fatalf("insert with one dead backup: %v", err)
		}
	}
	want, _ := c.digest("a", "d")
	if got, ok := c.digest("b", "d"); !ok || got != want {
		t.Fatalf("surviving backup digest = %q, want %q", got, want)
	}
	// The dead backup rejoins behind; the next write's shipping stream
	// re-ships everything since its last ack.
	c.start("c")
	if _, err := a.SubmitCtx(ctx, "d", insertOp("/r", "<m/>")); err != nil {
		t.Fatalf("insert after rejoin: %v", err)
	}
	want, _ = c.digest("a", "d")
	c.waitFor(2*time.Second, "rejoined backup to converge", func() bool {
		got, ok := c.digest("c", "d")
		return ok && got == want
	})
}

func TestAckAllFailsWithoutAllPeers(t *testing.T) {
	c := newCluster(t, 3, func(id string, o *Options) {
		o.Ack = AckAll
		o.FailoverAfter = 5 * time.Second // keep roles stable for the assert
	})
	ctx := context.Background()
	a := c.nodes["a"]
	if _, err := a.CreateCtx(ctx, "d", "<r/>"); err != nil {
		t.Fatalf("create: %v", err)
	}
	c.kill("c")
	wctx, cancel := context.WithTimeout(ctx, 400*time.Millisecond)
	defer cancel()
	_, err := a.SubmitCtx(wctx, "d", insertOp("/r", "<n/>"))
	if err == nil {
		t.Fatal("ack=all write succeeded with a dead peer")
	}
	// The commit is local: the write must report the ack shortfall, not
	// silently succeed.
	if !errors.Is(err, context.DeadlineExceeded) {
		var ae *AckError
		if !errors.As(err, &ae) {
			t.Fatalf("ack=all write error = %v, want AckError or deadline", err)
		}
	}
}

func TestFailoverPromotesAndFencesOldPrimary(t *testing.T) {
	c := newCluster(t, 3, nil)
	ctx := context.Background()
	a := c.nodes["a"]
	if _, err := a.CreateCtx(ctx, "d", "<r/>"); err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.SubmitCtx(ctx, "d", insertOp("/r", "<n/>")); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	c.kill("a")
	c.waitFor(5*time.Second, "a backup to promote", func() bool {
		p := c.currentPrimary()
		return p != nil && p.Epoch() > 1
	})
	p := c.currentPrimary()
	if _, err := p.SubmitCtx(ctx, "d", insertOp("/r", "<after-failover/>")); err != nil {
		t.Fatalf("write on new primary %s: %v", p.Self().ID, err)
	}

	// The deposed primary rejoins, hears the newer epoch, fences itself,
	// and resyncs to the new log.
	old := c.start("a")
	c.waitFor(5*time.Second, "old primary to be fenced to backup", func() bool {
		return old.Role() == RoleBackup && old.Epoch() == p.Epoch()
	})
	want, _ := c.digest(p.Self().ID, "d")
	c.waitFor(5*time.Second, "old primary to converge", func() bool {
		st := old.Status()
		got, ok := c.digest("a", "d")
		return !st.Dirty && ok && got == want
	})
}

func TestMinorityPartitionNeverPromotes(t *testing.T) {
	c := newCluster(t, 3, nil)
	ctx := context.Background()
	if _, err := c.nodes["a"].CreateCtx(ctx, "d", "<r/>"); err != nil {
		t.Fatalf("create: %v", err)
	}
	// Sever c completely: its RPCs fail outbound and its handlers answer
	// 503, so it can see neither a nor b.
	faultinject.Arm("repl.partition.c", faultinject.Fault{Kind: faultinject.KindError})
	defer faultinject.Disarm("repl.partition.c")
	time.Sleep(6 * c.nodes["c"].opts.FailoverAfter)
	if got := c.nodes["c"].Role(); got != RoleBackup {
		t.Fatalf("fully partitioned minority node promoted itself (role %v)", got)
	}
	if ep := c.nodes["c"].Epoch(); ep != 1 {
		t.Fatalf("partitioned node bumped epoch to %d", ep)
	}
	// The majority side is untouched: a still leads and commits.
	if _, err := c.nodes["a"].SubmitCtx(ctx, "d", insertOp("/r", "<n/>")); err != nil {
		t.Fatalf("majority write during partition: %v", err)
	}
}

func TestPartitionedPrimaryIsFencedOnHeal(t *testing.T) {
	c := newCluster(t, 2, nil)
	ctx := context.Background()
	a := c.nodes["a"]
	if _, err := a.CreateCtx(ctx, "d", "<r/>"); err != nil {
		t.Fatalf("create: %v", err)
	}
	// Sever the primary. In a two-node cluster the survivor stands
	// alone (minReach is capped at N-1), so b promotes under epoch 2.
	faultinject.Arm("repl.partition.a", faultinject.Fault{Kind: faultinject.KindError})
	b := c.nodes["b"]
	c.waitFor(5*time.Second, "survivor to promote", func() bool {
		return b.Role() == RolePrimary && b.Epoch() == 2
	})
	// The cut-off old primary cannot reach quorum: it must refuse the
	// acknowledgment rather than lie. Its local commit becomes the
	// unacked tail resync discards — the client was told, honestly,
	// that the write did not reach quorum.
	wctx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
	_, err := a.SubmitCtx(wctx, "d", insertOp("/r", "<lost/>"))
	cancel()
	if err == nil {
		t.Fatal("partitioned old primary acknowledged a quorum write")
	}

	// Heal. The old primary hears epoch 2, fences itself dirty, resyncs
	// wholesale — its unacked tail is gone and quorum writes flow again.
	faultinject.Disarm("repl.partition.a")
	c.waitFor(5*time.Second, "old primary to fence and resync", func() bool {
		return a.Role() == RoleBackup && !a.Status().Dirty && a.Epoch() == b.Epoch()
	})
	if _, err := b.SubmitCtx(ctx, "d", insertOp("/r", "<kept/>")); err != nil {
		t.Fatalf("write on new primary after heal: %v", err)
	}
	want, _ := c.digest("b", "d")
	c.waitFor(5*time.Second, "healed cluster to converge", func() bool {
		got, ok := c.digest("a", "d")
		return ok && got == want
	})
	info, err := a.Router().Get("d")
	if err != nil || !strings.Contains(info.XML, "kept") || strings.Contains(info.XML, "lost") {
		t.Fatalf("healed doc = %q err=%v: want the acked write, not the fenced tail", info.XML, err)
	}
}

// TestAckWaitBoundedWithoutCallerDeadline: a promoted survivor whose
// peer is gone must refuse a deadline-less quorum write within the
// failure-detection budget — not park it until the client hangs up.
// (An HTTP request context has no deadline of its own; before the ack
// bound, one such write wedged a pool worker forever.)
func TestAckWaitBoundedWithoutCallerDeadline(t *testing.T) {
	c := newCluster(t, 2, nil)
	ctx := context.Background()
	a, b := c.nodes["a"], c.nodes["b"]
	if _, err := a.CreateCtx(ctx, "d", "<r/>"); err != nil {
		t.Fatalf("create: %v", err)
	}
	faultinject.Arm("repl.partition.a", faultinject.Fault{Kind: faultinject.KindError})
	c.waitFor(5*time.Second, "survivor to promote", func() bool {
		return b.Role() == RolePrimary
	})

	begin := time.Now()
	_, err := b.SubmitCtx(ctx, "d", insertOp("/r", "<x/>")) // no deadline
	waited := time.Since(begin)
	var ae *AckError
	if !errors.As(err, &ae) {
		t.Fatalf("unreachable quorum returned %v, want AckError", err)
	}
	if limit := 20 * b.opts.FailoverAfter; waited > limit {
		t.Fatalf("ack refusal took %v, want bounded by ~FailoverAfter (%v)", waited, b.opts.FailoverAfter)
	}
}

func TestTentativeQueueAndMerge(t *testing.T) {
	c := newCluster(t, 3, func(id string, o *Options) { o.Tentative = true })
	ctx := context.Background()
	a := c.nodes["a"]
	if _, err := a.CreateCtx(ctx, "d", "<r><x/></r>"); err != nil {
		t.Fatalf("create: %v", err)
	}
	res, err := a.SubmitCtx(ctx, "d", insertOp("/r", "<n/>"))
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	base := res.LSN

	// Partition c and hand it an optimistic write that commutes with
	// what the primary does meanwhile (inserts under different parents).
	faultinject.Arm("repl.partition.c", faultinject.Fault{Kind: faultinject.KindError})
	nodeC := c.nodes["c"]
	if _, err := nodeC.QueueTentative("d", store.Op{Kind: "insert", Pattern: "/r/x", X: "<tent/>", BaseLSN: base}); err != nil {
		t.Fatalf("queue tentative: %v", err)
	}
	if nodeC.TentativeBacklog() != 1 {
		t.Fatalf("backlog = %d, want 1", nodeC.TentativeBacklog())
	}
	// Meanwhile the primary keeps writing.
	if _, err := a.SubmitCtx(ctx, "d", insertOp("/r", "<live/>")); err != nil {
		t.Fatalf("live insert: %v", err)
	}

	// Heal: the backlog flushes to the primary and merges through the
	// detector; the commuting insert commits.
	faultinject.Disarm("repl.partition.c")
	c.waitFor(5*time.Second, "tentative backlog to drain", func() bool {
		return nodeC.TentativeBacklog() == 0
	})
	c.waitFor(5*time.Second, "merge outcome to land on origin", func() bool {
		for _, o := range nodeC.MergeOutcomes() {
			if o.Committed && o.Node == "c" {
				return true
			}
		}
		return false
	})
	// The merged op is in the primary's log and ships like any write.
	want, _ := c.digest("a", "d")
	c.waitFor(5*time.Second, "merged write to replicate", func() bool {
		got, ok := c.digest("b", "d")
		return ok && got == want
	})
}

func TestTentativeRejectedOnPrimaryAndWhenDisabled(t *testing.T) {
	c := newCluster(t, 2, func(id string, o *Options) { o.Tentative = true })
	if _, err := c.nodes["a"].QueueTentative("d", insertOp("/r", "<n/>")); err == nil {
		t.Fatal("primary accepted a tentative write")
	}
	cOff := newCluster(t, 2, nil)
	if _, err := cOff.nodes["b"].QueueTentative("d", insertOp("/r", "<n/>")); !errors.Is(err, ErrTentativeOff) {
		t.Fatalf("tentative off error = %v, want ErrTentativeOff", err)
	}
}

func TestOpenValidatesMembership(t *testing.T) {
	dir := t.TempDir()
	peers := []Peer{{ID: "a", URL: "http://x"}, {ID: "b", URL: "http://y"}}
	if _, err := Open(dir, shard.Options{}, Options{NodeID: "z", Peers: peers}); err == nil {
		t.Fatal("open accepted a node id outside the peer list")
	}
	if _, err := Open(dir, shard.Options{}, Options{NodeID: "a", Peers: []Peer{{ID: "a"}, {ID: "a"}}}); err == nil {
		t.Fatal("open accepted duplicate peer ids")
	}
}

func TestSingleNodeDegradesToLocal(t *testing.T) {
	n, err := Open(t.TempDir(), shard.Options{}, Options{NodeID: "solo", Peers: []Peer{{ID: "solo"}}, Ack: AckQuorum})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer n.Close()
	if n.Role() != RolePrimary {
		t.Fatalf("single node role = %v, want primary", n.Role())
	}
	if _, err := n.CreateCtx(context.Background(), "d", "<r/>"); err != nil {
		t.Fatalf("single-node write: %v", err)
	}
}
