package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/store"
)

// The shard chaos suite drills the fail-stop domain: a kill-site fault
// on one shard's durability path must poison exactly that shard —
// every other shard keeps accepting and acknowledging commits. This is
// the sharded form of the store's own "never acknowledge what recovery
// cannot read back" invariant: the blast radius of a mid-commit crash
// is one WAL, not the document space.

// killShard drives one update into victimDoc with a panic fault armed
// at site, recovering the injected panic the way xserve's containment
// boundary would.
func killShard(t *testing.T, r *Router, victimDoc, site string) {
	t.Helper()
	faultinject.Arm(site, faultinject.Fault{Kind: faultinject.KindPanic, Times: 1})
	defer faultinject.Reset()
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(*faultinject.Panic); !ok {
				panic(rec)
			}
		}
	}()
	r.SubmitCtx(context.Background(), victimDoc, store.Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
	t.Fatalf("site %s: update returned without panicking", site)
}

func testShardFailStopIsolation(t *testing.T, site string) {
	t.Cleanup(faultinject.Reset)
	const shards = 4
	r := openTest(t, t.TempDir(), Options{Shards: shards, Store: store.Options{Fsync: store.FsyncAlways}})
	ctx := context.Background()

	docs := make([]string, shards)
	for i := 0; i < shards; i++ {
		docs[i] = docOnShard(t, r, i)
		if _, err := r.CreateCtx(ctx, docs[i], "<a/>"); err != nil {
			t.Fatal(err)
		}
	}

	const victim = 2
	killShard(t, r, docs[victim], site)

	// The victim shard is fail-stopped: its documents answer ErrClosed.
	if _, err := r.SubmitCtx(ctx, docs[victim], store.Op{Kind: "insert", Pattern: "/a", X: "<y/>"}); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("victim shard after %s kill: err=%v, want ErrClosed", site, err)
	}
	// Every other shard still serves commits, concurrently, race-clean.
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		if i == victim {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				if _, err := r.SubmitCtx(ctx, docs[i], store.Op{Kind: "insert", Pattern: "/a", X: "<z/>"}); err != nil {
					t.Errorf("healthy shard %d rejected an update after shard %d died: %v", i, victim, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	// The cross-shard listing still gathers the healthy shards and
	// reports (not hides) the dead one.
	entries, err := r.List()
	if !errors.Is(err, store.ErrClosed) {
		t.Fatalf("List after the victim's %s kill: err=%v, want ErrClosed", site, err)
	}
	found := map[string]bool{}
	for _, e := range entries {
		found[e.Doc] = true
	}
	for i, doc := range docs {
		if i != victim && !found[doc] {
			t.Fatalf("healthy shard %d's doc %s missing from post-kill listing (err=%v)", i, doc, err)
		}
	}
	// The id listing serves the healthy shards and nothing of the dead
	// one, which answers nothing once fail-stopped.
	ids := r.Docs()
	for i, doc := range docs {
		if listed := slices.Contains(ids, doc); listed != (i != victim) {
			t.Fatalf("Docs() after shard %d died = %v: shard %d's doc %s listed %v, want %v", victim, ids, i, doc, listed, i != victim)
		}
	}
}

func TestChaosShardKillAppendFailStopsOnlyThatShard(t *testing.T) {
	testShardFailStopIsolation(t, "store.append")
}

func TestChaosShardKillFsyncFailStopsOnlyThatShard(t *testing.T) {
	testShardFailStopIsolation(t, "store.fsync")
}

// TestChaosKilledShardRecoversIndependently: after a kill, reopening
// the same directory recovers every shard — including the victim, from
// its own WAL — with all acknowledged commits intact.
func TestChaosKilledShardRecoversIndependently(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	const shards = 4
	r, err := Open(dir, Options{Shards: shards, Store: store.Options{Fsync: store.FsyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	docs := make([]string, shards)
	acked := make([]store.Result, shards)
	for i := 0; i < shards; i++ {
		docs[i] = docOnShard(t, r, i)
		if _, err := r.CreateCtx(ctx, docs[i], "<a/>"); err != nil {
			t.Fatal(err)
		}
		acked[i], err = r.SubmitCtx(ctx, docs[i], store.Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
		if err != nil {
			t.Fatal(err)
		}
	}
	const victim = 1
	killShard(t, r, docs[victim], "store.append")
	// Abandon without Close, as a crash would; reopen the whole space.
	r2 := openTest(t, dir, Options{Shards: shards, Store: store.Options{Fsync: store.FsyncAlways}})
	for i := 0; i < shards; i++ {
		info, err := r2.Get(docs[i])
		if err != nil {
			t.Fatalf("shard %d doc %s lost after recovery: %v", i, docs[i], err)
		}
		if info.Digest != acked[i].Digest || info.LSN != acked[i].LSN {
			t.Fatalf("shard %d recovered digest %.12s lsn %d, want acknowledged %.12s lsn %d",
				i, info.Digest, info.LSN, acked[i].Digest, acked[i].LSN)
		}
	}
}

// TestChaosCrossShardGatherUnderFire exercises List() concurrently
// with writers on every shard under -race: the gather must stay sorted
// and never return a torn entry.
func TestChaosCrossShardGatherUnderFire(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	r := openTest(t, t.TempDir(), Options{Shards: 4})
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		if _, err := r.CreateCtx(ctx, fmt.Sprintf("doc-%02d", i), "<a/>"); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				doc := fmt.Sprintf("doc-%02d", (w*4+i)%16)
				r.SubmitCtx(ctx, doc, store.Op{Kind: "insert", Pattern: "/a", X: "<x/>"})
			}
		}(w)
	}
	for rep := 0; rep < 20; rep++ {
		entries, err := r.List()
		if err != nil {
			t.Fatalf("List under load: %v", err)
		}
		if len(entries) != 16 {
			t.Fatalf("List returned %d entries, want 16", len(entries))
		}
		for i := 1; i < len(entries); i++ {
			if entries[i-1].Doc >= entries[i].Doc {
				t.Fatalf("unsorted gather under load: %q before %q", entries[i-1].Doc, entries[i].Doc)
			}
		}
	}
	close(stop)
	wg.Wait()
}
