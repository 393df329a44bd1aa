package replica

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlconflict/internal/faultinject"
)

func TestMembersRoundTripAndOrdering(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := loadMembers(dir); err != nil || ok {
		t.Fatalf("fresh dir: ok=%v err=%v, want absent", ok, err)
	}
	want := memberState{Version: 1, Epoch: 2, Rev: 5, Members: []Member{
		{ID: "a", URL: "http://a"}, {ID: "b", URL: "http://b"}, {ID: "c", URL: "http://c", Learner: true},
	}}
	if err := saveMembers(dir, want); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, ok, err := loadMembers(dir)
	if err != nil || !ok || got.Epoch != 2 || got.Rev != 5 || len(got.Members) != 3 {
		t.Fatalf("load = %+v ok=%v err=%v", got, ok, err)
	}
	if got.voters() != 2 {
		t.Fatalf("voters = %d, want 2 (one learner)", got.voters())
	}
	// (Epoch, Rev) is lexicographic: a deposed primary's high revision
	// under an old epoch loses to any revision of the live epoch.
	older := memberState{Epoch: 1, Rev: 99}
	if older.newer(got) {
		t.Fatal("old-epoch rev 99 ordered above live-epoch rev 5")
	}
	if !got.newer(older) {
		t.Fatal("live epoch not newer than deposed high revision")
	}
	if (memberState{Epoch: 2, Rev: 5}).newer(got) {
		t.Fatal("equal (epoch, rev) claimed newer")
	}
}

// TestMembersFileTruncation cuts a committed roster at every byte
// boundary: each truncation must refuse to load — a node that guesses
// its membership can vote in a quorum it is not part of.
func TestMembersFileTruncation(t *testing.T) {
	dir := t.TempDir()
	ms := memberState{Version: 1, Epoch: 3, Rev: 4, Members: []Member{
		{ID: "node-a", URL: "http://a"}, {ID: "node-b", URL: "http://b", Learner: true},
	}}
	if err := saveMembers(dir, ms); err != nil {
		t.Fatalf("save: %v", err)
	}
	path := filepath.Join(dir, membersFileName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// The last cut keeps everything but the trailing newline, which
	// still parses — stop one byte earlier.
	for cut := 1; cut < len(full)-2; cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatalf("truncate to %d: %v", cut, err)
		}
		if _, _, err := loadMembers(dir); err == nil {
			t.Fatalf("membership truncated to %d/%d bytes loaded cleanly:\n%s", cut, len(full), full[:cut])
		}
	}
}

func TestMembersFileRejectsStructuralGarbage(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"not-json", "members: a b", "corrupt or half-written"},
		{"wrong-version", `{"version":2,"epoch":1,"rev":1,"members":[{"id":"a"}]}`, "version"},
		{"zero-rev", `{"version":1,"epoch":1,"rev":0,"members":[{"id":"a"}]}`, "rev 0"},
		{"no-members", `{"version":1,"epoch":1,"rev":1,"members":[]}`, "no members"},
		{"dup-ids", `{"version":1,"epoch":1,"rev":1,"members":[{"id":"a"},{"id":"a"}]}`, "duplicate"},
		{"all-learners", `{"version":1,"epoch":1,"rev":1,"members":[{"id":"a","learner":true}]}`, "no voting members"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, membersFileName), []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := loadMembers(dir)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("load(%s) = %v, want error containing %q", tc.name, err, tc.want)
			}
		})
	}
}

// addLearner boots a fresh node as a non-voting learner of the cluster:
// its own listener and dir, opts.Peers naming the established nodes
// plus itself. It is NOT in the committed roster until a Join commits.
func addLearner(t *testing.T, c *cluster, id string) *Node {
	t.Helper()
	sh := &swapHandler{}
	srv := httptest.NewServer(sh)
	t.Cleanup(srv.Close)
	dir := t.TempDir()
	peers := append(append([]Peer(nil), c.peers...), Peer{ID: id, URL: srv.URL})
	n, err := Open(dir, c.shards, Options{
		NodeID:         id,
		Peers:          peers,
		Learner:        true,
		Ack:            AckQuorum,
		HeartbeatEvery: 10 * time.Millisecond,
		FailoverAfter:  80 * time.Millisecond,
		StalenessBound: time.Second,
	})
	if err != nil {
		t.Fatalf("open learner %s: %v", id, err)
	}
	t.Cleanup(func() { n.Close() }) //nolint:errcheck // test teardown
	sh.set(n.Handler())
	c.handlers[id] = sh
	c.dirs[id] = dir
	c.nodes[id] = n
	return n
}

// TestJoinUnderLoadPromotesLearnerToVoter is the join drill: a learner
// joins a 2-node cluster while writes flow, catches up over the
// replication stream, and the primary auto-promotes it to voter. The
// committed roster version must advance on every node and the learner's
// document state must be byte-identical to the primary's.
func TestJoinUnderLoadPromotesLearnerToVoter(t *testing.T) {
	c := newCluster(t, 2, nil)
	ctx := context.Background()
	a := c.nodes["a"]
	if _, err := a.CreateCtx(ctx, "d", "<r/>"); err != nil {
		t.Fatalf("create: %v", err)
	}

	// Writes keep flowing for the whole membership change.
	stop := make(chan struct{})
	var stopOnce sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			wctx, cancel := context.WithTimeout(ctx, time.Second)
			a.SubmitCtx(wctx, "d", insertOp("/r", fmt.Sprintf("<w i=\"%d\"/>", i))) //nolint:errcheck // load, not assertion
			cancel()
			time.Sleep(2 * time.Millisecond)
		}
	}()
	halt := func() { stopOnce.Do(func() { close(stop) }); wg.Wait() }
	defer halt()

	nodeC := addLearner(t, c, "c")
	// Hold c partitioned until the learner check below: a heartbeat
	// could otherwise report it caught up and get it promoted before
	// Status is read.
	faultinject.Arm("repl.partition.c", faultinject.Fault{Kind: faultinject.KindError})
	if err := a.Join(ctx, "c", nodeC.Self().URL); err != nil {
		t.Fatalf("join: %v", err)
	}
	// The join is a learner admission: quorum math must not change yet.
	st := a.Status()
	if got := len(st.Members); got != 3 {
		t.Fatalf("roster size after join = %d, want 3", got)
	}
	for _, m := range st.Members {
		if m.ID == "c" && !m.Learner {
			t.Fatal("freshly joined node is already a voter")
		}
	}
	faultinject.Disarm("repl.partition.c")

	// Catch-up then auto-promotion: the primary commits learner→voter
	// once c is within the promotion lag.
	c.waitFor(10*time.Second, "learner to be promoted to voter", func() bool {
		for _, m := range a.Status().Members {
			if m.ID == "c" {
				return !m.Learner
			}
		}
		return false
	})
	c.waitFor(5*time.Second, "promoted roster to reach every node", func() bool {
		for _, n := range c.nodes {
			st := n.Status()
			if st.MembersRev < 3 { // rev 1 boot, rev 2 join, rev 3 promotion
				return false
			}
		}
		return true
	})
	halt()

	want, _ := c.digest("a", "d")
	c.waitFor(5*time.Second, "joined voter to converge", func() bool {
		got, ok := c.digest("c", "d")
		return ok && got == want
	})
	// The new voter is real quorum: with one old backup dead, writes
	// still commit (2 of 3), which they could not in the 2-node cluster.
	c.kill("b")
	if _, err := a.SubmitCtx(ctx, "d", insertOp("/r", "<post-join/>")); err != nil {
		t.Fatalf("quorum write with new voter standing in: %v", err)
	}
}

// TestLeaveOfPrimaryDrainsAndSurvivorsElect is the drain drill: the
// primary removes ITSELF from the committed membership. It must stop
// serving writes, the survivors must elect under the smaller voter set,
// and the drained node's reopen must be refused.
func TestLeaveOfPrimaryDrainsAndSurvivorsElect(t *testing.T) {
	c := newCluster(t, 3, nil)
	ctx := context.Background()
	a := c.nodes["a"]
	if _, err := a.CreateCtx(ctx, "d", "<r/>"); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := a.SubmitCtx(ctx, "d", insertOp("/r", "<before-drain/>")); err != nil {
		t.Fatalf("insert: %v", err)
	}

	if err := a.Leave(ctx, "a"); err != nil {
		t.Fatalf("leave of self: %v", err)
	}
	if !a.Status().Removed {
		t.Fatal("drained primary does not report removed")
	}
	if _, err := a.SubmitCtx(ctx, "d", insertOp("/r", "<after-drain/>")); err == nil {
		t.Fatal("drained node accepted a write")
	}

	// Survivors detect the silent ex-primary and elect among {b, c}.
	var p *Node
	c.waitFor(10*time.Second, "a survivor to promote", func() bool {
		for _, id := range []string{"b", "c"} {
			if n := c.nodes[id]; n.Role() == RolePrimary && n.Epoch() > 1 {
				p = n
				return true
			}
		}
		return false
	})
	if _, err := p.SubmitCtx(ctx, "d", insertOp("/r", "<post-drain/>")); err != nil {
		t.Fatalf("write on survivor primary: %v", err)
	}
	want, _ := c.digest(p.Self().ID, "d")
	other := "b"
	if p.Self().ID == "b" {
		other = "c"
	}
	c.waitFor(5*time.Second, "survivors to converge", func() bool {
		got, ok := c.digest(other, "d")
		return ok && got == want
	})

	// The drained node's data directory is out of the cluster for good:
	// reopening it must be refused, not silently rejoined.
	c.kill("a")
	_, err := Open(c.dirs["a"], shardOptsForTest(), Options{NodeID: "a", Peers: c.peers})
	if err == nil || !strings.Contains(err.Error(), "not in the committed membership") {
		t.Fatalf("reopen of drained node: %v, want membership refusal", err)
	}
}

// TestMemberCommitFaultLeavesRosterRetryable injects a failure at the
// repl.member.commit boundary — between the membership decision and its
// durable write: the change must not take effect, the roster must stay
// at its old revision on every node, and a retry must succeed.
func TestMemberCommitFaultLeavesRosterRetryable(t *testing.T) {
	c := newCluster(t, 2, nil)
	ctx := context.Background()
	a := c.nodes["a"]
	before := a.Status().MembersRev

	faultinject.Arm("repl.member.commit", faultinject.Fault{Kind: faultinject.KindError, Times: 1})
	err := a.Join(ctx, "x", "http://127.0.0.1:1")
	if err == nil {
		t.Fatal("join survived the injected commit crash")
	}
	if got := a.Status().MembersRev; got != before {
		t.Fatalf("failed commit advanced the roster: rev %d -> %d", before, got)
	}
	for _, m := range a.Status().Members {
		if m.ID == "x" {
			t.Fatal("failed commit installed the new member")
		}
	}
	// The fault fired once; the retried commit lands.
	if err := a.Join(ctx, "x", "http://127.0.0.1:1"); err != nil {
		t.Fatalf("retried join: %v", err)
	}
	if got := a.Status().MembersRev; got != before+1 {
		t.Fatalf("retried join: rev %d, want %d", got, before+1)
	}
	// And the survivor heard about it.
	c.waitFor(5*time.Second, "backup to install the new roster", func() bool {
		return c.nodes["b"].Status().MembersRev == before+1
	})
}

// TestMembershipChangeGuards: the edges of the admin surface — joins
// are idempotent per (id, url), an id collision with a different URL is
// refused, leaves of strangers are no-ops, and the last voter can never
// be removed.
func TestMembershipChangeGuards(t *testing.T) {
	c := newCluster(t, 2, nil)
	ctx := context.Background()
	a := c.nodes["a"]

	if err := a.Join(ctx, "c", "http://127.0.0.1:1"); err != nil {
		t.Fatalf("join: %v", err)
	}
	rev := a.Status().MembersRev
	if err := a.Join(ctx, "c", "http://127.0.0.1:1"); err != nil {
		t.Fatalf("idempotent re-join: %v", err)
	}
	if got := a.Status().MembersRev; got != rev {
		t.Fatalf("idempotent re-join advanced the roster: %d -> %d", rev, got)
	}
	if err := a.Join(ctx, "c", "http://127.0.0.1:2"); err == nil {
		t.Fatal("join accepted an id collision under a different URL")
	}
	if err := a.Leave(ctx, "ghost"); err != nil {
		t.Fatalf("leave of a stranger: %v", err)
	}

	// Drain down to one voter, then refuse to remove it.
	if err := a.Leave(ctx, "c"); err != nil {
		t.Fatalf("leave learner: %v", err)
	}
	if err := a.Leave(ctx, "b"); err != nil {
		t.Fatalf("leave backup: %v", err)
	}
	if err := a.Leave(ctx, "a"); err == nil {
		t.Fatal("removed the last voter")
	}
	// The lone survivor still serves writes.
	if _, err := a.CreateCtx(ctx, "d", "<r/>"); err != nil {
		t.Fatalf("single-voter write: %v", err)
	}

	// A backup refuses membership commits: only the primary mutates the
	// roster.
	if err := c.nodes["b"].Join(ctx, "z", "http://127.0.0.1:3"); err == nil {
		t.Fatal("backup committed a membership change")
	}
}

// TestPromotionAdoptsCommittedRosterFromGranter is the stale-candidate
// drill: a membership change commits through a majority that excludes
// one voter (its link from the primary is cut), the primary dies, and
// that stale voter wins the next election. The winner must adopt the
// newest committed roster carried by its granters' votes — re-stamping
// its own stale copy under the higher epoch would outrank the committed
// revision and anti-entropy would roll the change back cluster-wide.
func TestPromotionAdoptsCommittedRosterFromGranter(t *testing.T) {
	c := newCluster(t, 3, nil)
	ctx := context.Background()
	a := c.nodes["a"]
	if _, err := a.CreateCtx(ctx, "d", "<r/>"); err != nil {
		t.Fatalf("create: %v", err)
	}

	// Sever every send TO b (a cannot heartbeat it or push rosters, so b
	// stays on the boot revision). b can still send — it polls a's
	// status, sees it alive, and keeps standing down.
	faultinject.Arm("repl.link.b", faultinject.Fault{Kind: faultinject.KindError})

	// The join commits at rev 2 through a+c — a majority of the voter
	// set that never includes b.
	if err := a.Join(ctx, "x", "http://127.0.0.1:1"); err != nil {
		t.Fatalf("join behind b's back: %v", err)
	}
	if got := a.Status().MembersRev; got != 2 {
		t.Fatalf("primary roster rev = %d, want 2", got)
	}
	c.waitFor(5*time.Second, "c to install rev 2", func() bool {
		return c.nodes["c"].Status().MembersRev >= 2
	})
	if got := c.nodes["b"].Status().MembersRev; got != 1 {
		t.Fatalf("b saw the change despite the cut link: rev %d, want 1", got)
	}

	// Kill the primary and heal b's inbound link: b (rank 0) stands
	// first and wins with c's vote — a vote that carries c's rev-2
	// roster, which the new primary must adopt before claiming the epoch.
	c.kill("a")
	faultinject.Disarm("repl.link.b")
	p := c.stablePrimary(10 * time.Second)
	if p.Self().ID != "b" {
		t.Fatalf("promoted node = %s, want b (rank 0)", p.Self().ID)
	}

	hasX := func(st Status) bool {
		for _, m := range st.Members {
			if m.ID == "x" {
				return true
			}
		}
		return false
	}
	st := p.Status()
	if st.MembersRev != 2 || !hasX(st) {
		t.Fatalf("new primary roster (epoch %d, rev %d, x=%v): committed join was rolled back",
			st.MembersEpoch, st.MembersRev, hasX(st))
	}
	if st.MembersEpoch != st.Epoch {
		t.Fatalf("adopted roster not re-stamped: members epoch %d, node epoch %d", st.MembersEpoch, st.Epoch)
	}
	// And the survivor keeps the change under the new stamp — nothing
	// anti-entropies it away.
	c.waitFor(5*time.Second, "c to keep rev 2 under the new epoch", func() bool {
		st := c.nodes["c"].Status()
		return st.MembersEpoch == p.Epoch() && st.MembersRev == 2 && hasX(st)
	})
}
