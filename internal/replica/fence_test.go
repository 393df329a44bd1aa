package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
	"time"
)

// postJSON speaks the replication wire protocol directly: marshal body,
// POST it, decode the reply into out, return the status. The fence
// tests drive handlers this way so a vote can exist without the
// candidate running in-process — exactly what a peer across a partition
// looks like.
func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal %T: %v", body, err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s reply: %v", url, err)
	}
	return resp.StatusCode
}

// TestPrepareVoteWriteFencesOldEpoch is the write-fence invariant from
// the promotion protocol, checked at the wire: from the moment a voter
// grants epoch e+1, it rejects every append and heartbeat below e+1 —
// even though the epoch-e primary is alive and reachable — and the
// promise survives a crash. Without this fence, an asymmetrically
// partitioned primary could keep acking quorum writes through voters
// that already elected its successor, and those writes would be lost.
func TestPrepareVoteWriteFencesOldEpoch(t *testing.T) {
	// Elections are manual here: the failure detector never fires, so
	// every epoch and promise transition is the test's own doing.
	c := newCluster(t, 3, func(id string, o *Options) { o.FailoverAfter = time.Hour })
	ctx := context.Background()
	a := c.nodes["a"]
	if _, err := a.CreateCtx(ctx, "d", "<r/>"); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := a.SubmitCtx(ctx, "d", insertOp("/r", "<n/>")); err != nil {
		t.Fatalf("insert: %v", err)
	}
	var bURL string
	for _, p := range c.peers {
		if p.ID == "b" {
			bURL = p.URL
		}
	}

	// Candidate c asks voter b for epoch 2. The grant carries b's
	// per-shard positions, read after the promise is durable.
	var vote prepareResponse
	if st := postJSON(t, bURL+"/v1/repl/prepare", prepareRequest{Epoch: 2, Candidate: "c"}, &vote); st != http.StatusOK || !vote.Granted {
		t.Fatalf("prepare(2,c) = %d %+v, want granted", st, vote)
	}
	if want := shardOptsForTest().Shards; len(vote.LSNs) != want {
		t.Fatalf("grant carries %d shard positions, want %d", len(vote.LSNs), want)
	}

	// From the promise on, epoch-1 appends are rejected. The refusal
	// names the promised epoch with an EMPTY primary: the old primary
	// learns it is fenced without adopting a claim nobody has won.
	frames, _, err := a.Router().Store(0).FramesSince(0)
	if err != nil {
		t.Fatal(err)
	}
	appendReq := appendRequest{Epoch: 1, Primary: "a", Shard: 0, Frames: frames}
	var app appendResponse
	if st := postJSON(t, bURL+"/v1/repl/append", appendReq, &app); st != http.StatusConflict || app.Accepted {
		t.Fatalf("epoch-1 append after vote = %d %+v, want 409", st, app)
	}
	if app.Epoch != 2 || app.Primary != "" {
		t.Fatalf("fence reply = %+v, want epoch 2 with no primary", app)
	}

	// Heartbeats below the promise are fenced the same way.
	var hb heartbeatResponse
	if st := postJSON(t, bURL+"/v1/repl/heartbeat", heartbeatRequest{Epoch: 1, Primary: "a"}, &hb); st != http.StatusConflict || hb.Accepted {
		t.Fatalf("epoch-1 heartbeat after vote = %d %+v, want 409", st, hb)
	}

	// Re-granting the same (epoch, candidate) is idempotent — an aborted
	// candidacy must be able to retry its own claim…
	var again prepareResponse
	if st := postJSON(t, bURL+"/v1/repl/prepare", prepareRequest{Epoch: 2, Candidate: "c"}, &again); st != http.StatusOK || !again.Granted {
		t.Fatalf("re-grant (2,c) = %d %+v, want granted", st, again)
	}
	// …but a rival claim at the promised epoch is refused.
	var rival prepareResponse
	if st := postJSON(t, bURL+"/v1/repl/prepare", prepareRequest{Epoch: 2, Candidate: "a"}, &rival); st != http.StatusConflict || rival.Granted {
		t.Fatalf("rival prepare(2,a) = %d %+v, want refused", st, rival)
	}

	// The promise is durable: a restarted voter still fences epoch 1. An
	// in-memory-only vote would un-fence the old primary on crash and
	// reopen the lost-write window the fence exists to close.
	c.kill("b")
	c.start("b")
	if st := postJSON(t, bURL+"/v1/repl/append", appendReq, &app); st != http.StatusConflict || app.Accepted {
		t.Fatalf("epoch-1 append after voter restart = %d %+v, want 409 (promise not durable?)", st, app)
	}
}

// TestMergeReplayReturnsRecordedOutcomes: an origin whose transport
// failed AFTER the primary processed its batch retries the whole batch;
// the replay must return the recorded outcomes without committing
// anything a second time. A fresh incarnation of the same origin is not
// a replay.
func TestMergeReplayReturnsRecordedOutcomes(t *testing.T) {
	c := newCluster(t, 2, func(id string, o *Options) { o.Tentative = true })
	ctx := context.Background()
	a := c.nodes["a"]
	if _, err := a.CreateCtx(ctx, "d", "<r><x/></r>"); err != nil {
		t.Fatalf("create: %v", err)
	}
	ops := []TentativeOp{
		{Seq: 1, Inc: 0xb0b, Node: "b", Doc: "d", Op: insertOp("/r", "<t1/>")},
		{Seq: 2, Inc: 0xb0b, Node: "b", Doc: "d", Op: insertOp("/r/x", "<t2/>")},
	}
	first := a.mergeLocal(ctx, ops)
	if len(first) != 2 || !first[0].Committed || !first[1].Committed {
		t.Fatalf("first merge: %+v", first)
	}
	lsns := a.Router().LSNs()
	digest, ok := c.digest("a", "d")
	if !ok {
		t.Fatal("doc missing after merge")
	}

	second := a.mergeLocal(ctx, ops)
	if !reflect.DeepEqual(second, first) {
		t.Fatalf("replayed merge outcomes differ:\nfirst  %+v\nsecond %+v", first, second)
	}
	if got := a.Router().LSNs(); !reflect.DeepEqual(got, lsns) {
		t.Fatalf("replay advanced the log: %v -> %v", lsns, got)
	}
	if got, _ := c.digest("a", "d"); got != digest {
		t.Fatalf("replay changed the document: %s -> %s", digest, got)
	}

	// Same (node, seq), different incarnation: the origin restarted and
	// its seq counter rewound — this is a new op, not a duplicate.
	reborn := a.mergeLocal(ctx, []TentativeOp{
		{Seq: 1, Inc: 0xb0c, Node: "b", Doc: "d", Op: insertOp("/r", "<t3/>")},
	})
	if len(reborn) != 1 || !reborn[0].Committed {
		t.Fatalf("new incarnation treated as replay: %+v", reborn)
	}
}
