package store

import (
	"context"
	"errors"
	"testing"
	"time"

	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/telemetry/span"
)

// storeSpans collects every span with the given name, depth-first.
func storeSpans(v span.SpanView, name string) []span.SpanView {
	var out []span.SpanView
	if v.Name == name {
		out = append(out, v)
	}
	for _, c := range v.Children {
		out = append(out, storeSpans(c, name)...)
	}
	return out
}

func TestStoreSpanTree(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Fsync: FsyncAlways})
	tr := span.New("test")
	ctx := span.Context(context.Background(), tr.Root())

	base, err := s.CreateCtx(ctx, "d", "<a/>")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitCtx(ctx, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"}); err != nil {
		t.Fatal(err)
	}
	// delete //x against the pre-insert base does not commute with the
	// intervening insert of <x/>: the store must reject it, and the span
	// tree must carry the forensics.
	_, err = s.SubmitCtx(ctx, "d", Op{Kind: "delete", Pattern: "//x", BaseLSN: base.LSN})
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("want ConflictError, got %v", err)
	}
	tr.Finish()
	v := tr.View()

	// The successful update ran the full pipeline.
	ups := storeSpans(v.Root, "store.update")
	if len(ups) != 2 {
		t.Fatalf("store.update spans = %d, want 2", len(ups))
	}
	// FsyncAlways acknowledges after a covering fsync: the commit waits
	// under store.ack, and, with no other commit to lead it, issues the
	// fsync itself as that span's child, never inside the append.
	ok := ups[0]
	for _, name := range []string{"store.admit", "store.apply", "store.wal.append", "store.ack", "store.fsync"} {
		if got := storeSpans(ok, name); len(got) != 1 {
			t.Fatalf("committed update: %s spans = %d, want 1", name, len(got))
		}
	}
	if _, has := ok.Attrs["lsn"]; !has {
		t.Fatalf("committed update span missing lsn: %+v", ok.Attrs)
	}

	// The rejected update stopped at admission, with the conflict recorded.
	rej := ups[1]
	adm := storeSpans(rej, "store.admit")
	if len(adm) != 1 {
		t.Fatalf("rejected update: store.admit spans = %d", len(adm))
	}
	a := adm[0]
	if a.Attrs["conflict"] != true {
		t.Fatalf("admit span not marked conflicting: %+v", a.Attrs)
	}
	for _, key := range []string{"sem", "fired", "with_lsn", "with_kind", "base_lsn"} {
		if _, has := a.Attrs[key]; !has {
			t.Fatalf("admit span missing %q: %+v", key, a.Attrs)
		}
	}
	if got := storeSpans(rej, "store.wal.append"); len(got) != 0 {
		t.Fatal("rejected update must not reach the WAL")
	}
	// The whole trace is flagged for the flight recorder's conflict ring.
	found := false
	for _, f := range v.Flags {
		if f == "conflict" {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace flags = %v, want conflict", v.Flags)
	}

	// Create and its fsync are visible too. Every fsync sits under the
	// store.ack wait of the commit that issued it, never under an
	// append.
	if got := storeSpans(v.Root, "store.create"); len(got) != 1 {
		t.Fatalf("store.create spans = %d, want 1", len(got))
	}
	if got := storeSpans(v.Root, "store.ack"); len(got) != 2 {
		t.Fatalf("store.ack spans = %d, want 2 (create + committed update)", len(got))
	}
	var underAck int
	for _, ack := range storeSpans(v.Root, "store.ack") {
		underAck += len(storeSpans(ack, "store.fsync"))
	}
	if got := storeSpans(v.Root, "store.fsync"); len(got) != 2 || underAck != 2 {
		t.Fatalf("store.fsync spans = %d, %d of them under store.ack; want 2, all under it", len(got), underAck)
	}
	for _, app := range storeSpans(v.Root, "store.wal.append") {
		if got := storeSpans(app, "store.fsync"); len(got) != 0 {
			t.Fatal("a store.fsync span sits under store.wal.append")
		}
	}
}

// TestStoreSpanGroupCommitAck: commits that wait together share one
// fsync. Each acknowledges under its own store.ack span, but only the
// commit that issued the fsync times it as that span's child; the
// others' store.ack spans have none, since they waited on its fsync.
func TestStoreSpanGroupCommitAck(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := openTest(t, t.TempDir(), Options{Fsync: FsyncAlways})
	base := mustCreate(t, s, "d", "<a/>").LSN

	// The first commit's fsync is slow; two more commits are written
	// while it runs, so both wait for the next fsync, which one issues.
	const delay = 500 * time.Millisecond
	faultinject.Arm("store.fsync", faultinject.Fault{Kind: faultinject.KindLatency, Delay: delay, Times: 1})
	traces := []*span.Trace{span.New("first"), span.New("second"), span.New("third")}
	errs := make(chan error, len(traces))
	commit := func(tr *span.Trace) {
		ctx := span.Context(context.Background(), tr.Root())
		_, err := s.SubmitCtx(ctx, "d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
		tr.Finish()
		errs <- err
	}
	go commit(traces[0])
	awaitFired(t, "store.fsync", 1)
	start := time.Now()
	go commit(traces[1])
	go commit(traces[2])
	if !s.WaitLSN(context.Background(), base+3, 5*time.Second) {
		t.Fatal("the group's commits never advanced the LSN")
	}
	if el := time.Since(start); el >= delay {
		t.Fatalf("the group was written %v after the first fsync began, not within its %v", el, delay)
	}
	for range traces {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	var fsyncs, waited int
	for i, tr := range traces {
		acks := storeSpans(tr.View().Root, "store.ack")
		if len(acks) != 1 {
			t.Fatalf("commit %d: store.ack spans = %d, want 1", i, len(acks))
		}
		under := len(storeSpans(acks[0], "store.fsync"))
		if all := len(storeSpans(tr.View().Root, "store.fsync")); all != under {
			t.Fatalf("commit %d: %d store.fsync spans, %d under store.ack; want all under it", i, all, under)
		}
		fsyncs += under
		if under == 0 {
			waited++
		}
	}
	if fsyncs != 2 || waited != 1 {
		t.Fatalf("3 commits: %d store.fsync spans, %d acks with none; want 2 and 1 (the group shared one)", fsyncs, waited)
	}
}

func TestStoreUntracedSubmitUnchanged(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	mustCreate(t, s, "d", "<a/>")
	if _, err := s.Submit("d", Op{Kind: "insert", Pattern: "/a", X: "<x/>"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitCtx(context.Background(), "d", Op{Kind: "read", Pattern: "//x"}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreSpanAdmitCounts: the store.admit span says how each window
// entry above the base was settled, and the store counts the same.
// Against a stale delete //x, the committed insert /a <y/> is settled
// by the detector alone; insert /a/b <x/> could move the delete's
// points on some tree, so it gets the concrete check, which its
// b-less pre-state passes.
func TestStoreSpanAdmitCounts(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Fsync: FsyncNever})
	base := mustCreate(t, s, "d", "<a/>").LSN
	mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a", X: "<y/>"})
	mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a/b", X: "<x/>"})

	tr := span.New("test")
	ctx := span.Context(context.Background(), tr.Root())
	if _, err := s.SubmitCtx(ctx, "d", Op{Kind: "delete", Pattern: "//x", BaseLSN: base}); err != nil {
		t.Fatalf("stale delete //x: %v", err)
	}
	tr.Finish()
	adm := storeSpans(tr.View().Root, "store.admit")
	if len(adm) != 1 {
		t.Fatalf("store.admit spans = %d, want 1", len(adm))
	}
	if a := adm[0].Attrs; a["static"] != 1 || a["concrete"] != 1 {
		t.Fatalf("admit span static/concrete = %v/%v, want 1/1", a["static"], a["concrete"])
	}
	if _, has := adm[0].Attrs["cache"]; has {
		t.Fatalf("admit span still carries a cache disposition: %+v", adm[0].Attrs)
	}
	for _, name := range []string{"detect.cached", "detect"} {
		if got := storeSpans(tr.View().Root, name); len(got) != 0 {
			t.Fatalf("the screen's lookups nest %s spans under store.admit", name)
		}
	}
	if st, co := s.m.Counter("store.admit_static").Load(), s.m.Counter("store.admit_concrete").Load(); st != 1 || co != 1 {
		t.Fatalf("store.admit_static/concrete = %d/%d, want 1/1", st, co)
	}
}
