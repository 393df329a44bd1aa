package store

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"xmlconflict/internal/ops"
	"xmlconflict/internal/xmltree"
)

// liveHeap returns the live heap after two collections: the first only
// moves sync.Pool caches (the canonical kernel's buffers, encoding/json's
// encode buffer) to the victim cache, the second frees them.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// docsLargeXML builds a document shaped like the docs-large benchmark's:
// /log/sK/bJ slots of <item><v/></item> entries, 3 857 nodes.
func docsLargeXML() string {
	var b strings.Builder
	b.WriteString("<log>")
	for s := 0; s < 16; s++ {
		fmt.Fprintf(&b, "<s%d>", s)
		for j := 0; j < 16; j++ {
			fmt.Fprintf(&b, "<b%d>", j)
			for k := 0; k < 5+(7*s+3*j)%5; k++ {
				b.WriteString("<item><v/></item>")
			}
			fmt.Fprintf(&b, "</b%d>", j)
		}
		fmt.Fprintf(&b, "</s%d>", s)
	}
	b.WriteString("</log>")
	return b.String()
}

// TestWindowPreStatesShareStructure: the admission window's pre-states
// share every subtree their successors left alone, so a document with a
// full window of 32 updates costs its copied paths, not 33 documents.
func TestWindowPreStatesShareStructure(t *testing.T) {
	xml := docsLargeXML()
	base := liveHeap()
	parsed := xmltree.MustParse(xml)
	one := liveHeap() - base
	if n := parsed.Size(); n < 3500 || n > 4000 {
		t.Fatalf("document has %d nodes, want ~3 800", n)
	}
	runtime.KeepAlive(parsed)

	s := openTest(t, t.TempDir(), Options{Fsync: FsyncNever})
	before := liveHeap()
	mustCreate(t, s, "d", xml)
	for i := 0; i < 40; i++ {
		mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: fmt.Sprintf("/log/s%d/b%d", i%16, (5*i)%16), X: "<n><v/></n>"})
	}
	grew := liveHeap() - before
	t.Logf("one parsed copy: %d bytes; the store holding it with a full window: %d bytes (%.1f copies)",
		one, grew, float64(grew)/float64(one))
	if grew >= 3*one {
		t.Fatalf("the store retains %d bytes, %.1f parsed copies of the document; want under 3", grew, float64(grew)/float64(one))
	}
}

// TestCommitAllocIndependentOfSnapshotEvery: once the admission window
// is full, a commit drops its oldest entry in place, and the WAL's index
// grows by one offset, so what a commit allocates does not grow with the
// number of records the log keeps between snapshots.
func TestCommitAllocIndependentOfSnapshotEvery(t *testing.T) {
	perCommit := func(every int) float64 {
		s := openTest(t, t.TempDir(), Options{Fsync: FsyncNever, SnapshotEvery: every})
		mustCreate(t, s, "d", "<a/>")
		// Insert and delete in turn so the document stays two nodes.
		commit := func(i int) {
			op := Op{Kind: "insert", Pattern: "/a", X: "<b/>"}
			if i%2 == 1 {
				op = Op{Kind: "delete", Pattern: "/a/b"}
			}
			mustSubmit(t, s, "d", op)
		}
		for i := 0; i <= every; i++ {
			commit(i)
		}
		const n = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			commit(i)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	small, large := perCommit(64), perCommit(4096)
	t.Logf("bytes allocated per commit: %.0f at SnapshotEvery 64, %.0f at 4096", small, large)
	if large > 1.5*small {
		t.Fatalf("a commit allocates %.0f bytes at SnapshotEvery 4096, %.1fx the %.0f at 64; want within 1.5x",
			large, large/small, small)
	}
}

// TestInsertDeleteCyclesRetainNoRecords keeps a document at <r/> while
// 512 cycles insert an 8 007-byte fragment under /r and delete it again.
// The store retains the admission window and the WAL's index of where
// each record ends, not the records, so the live heap grows under
// 6 MiB: 1 024 of the records alone would take about 14 MiB.
func TestInsertDeleteCyclesRetainNoRecords(t *testing.T) {
	frag := "<f>" + strings.Repeat("<a/>", 2000) + "</f>"
	s := openTest(t, t.TempDir(), Options{Fsync: FsyncNever})
	mustCreate(t, s, "d", "<r/>")
	before := liveHeap()
	for i := 0; i < 512; i++ {
		mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/r", X: frag})
		mustSubmit(t, s, "d", Op{Kind: "delete", Pattern: "/r/f"})
	}
	grew := liveHeap() - before
	if info, err := s.Get("d"); err != nil || info.XML != "<r/>" {
		t.Fatalf("document after the cycles: %q, %v", info.XML, err)
	}
	t.Logf("%d-byte fragments, 512 cycles: the live heap grew %.1f MiB", len(frag), float64(grew)/(1<<20))
	if grew >= 6<<20 {
		t.Fatalf("the live heap grew %.1f MiB over 512 insert/delete cycles; want under 6 MiB", float64(grew)/(1<<20))
	}
}

// TestVersionsHammer: Get and admitted reads serialize a version after
// releasing the store mutex while other goroutines commit inserts and
// deletes to the same document. Every Get must see one whole version,
// its XML re-digesting to the digest it reports, and every admitted
// stale read must return well-formed subtrees of one version.
func TestVersionsHammer(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Fsync: FsyncNever})
	var b strings.Builder
	b.WriteString("<r>")
	for k := 0; k < 8; k++ {
		fmt.Fprintf(&b, "<s%d><n><v/></n></s%d>", k, k)
	}
	b.WriteString("</r>")
	mustCreate(t, s, "d", b.String())

	const rounds = 150
	var wg sync.WaitGroup
	run := func(name string, f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := f(i); err != nil {
					t.Errorf("%s round %d: %v", name, i, err)
					return
				}
			}
		}()
	}
	run("get", func(int) error {
		info, err := s.Get("d")
		if err != nil {
			return err
		}
		tr, err := xmltree.ParseString(info.XML)
		if err != nil {
			return err
		}
		if tr.Digest() != info.Digest || tr.Size() != info.Size {
			return fmt.Errorf("lsn %d: XML re-digests to %s (%d nodes), Get reports %s (%d nodes)",
				info.LSN, tr.Digest(), tr.Size(), info.Digest, info.Size)
		}
		return nil
	})
	run("stale read", func(i int) error {
		base := s.LSN()
		if base > 3 {
			base -= uint64(i % 3)
		}
		res, err := s.Submit("d", Op{Kind: "read", Pattern: fmt.Sprintf("/r/s%d/n", i%8), Sem: ops.TreeSemantics, BaseLSN: base})
		var ce *ConflictError
		if errors.As(err, &ce) || errors.Is(err, ErrStaleBase) {
			return nil
		}
		if err != nil {
			return err
		}
		for _, x := range res.Nodes {
			n, err := xmltree.ParseString(x)
			if err != nil {
				return err
			}
			if n.Root().Label() != "n" {
				return fmt.Errorf("read returned %s, want an n subtree", x)
			}
		}
		return nil
	})
	run("insert", func(i int) error {
		_, err := s.Submit("d", Op{Kind: "insert", Pattern: fmt.Sprintf("/r/s%d", i%8), X: "<n><v/></n>"})
		return err
	})
	run("delete", func(i int) error {
		_, err := s.Submit("d", Op{Kind: "delete", Pattern: fmt.Sprintf("/r/s%d/n", (i+3)%8)})
		return err
	})
	wg.Wait()
}
