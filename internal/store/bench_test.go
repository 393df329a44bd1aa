package store

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"xmlconflict/internal/ops"
)

// BenchmarkStoreReopen reopens a store holding four docs-large-shaped
// documents from its snapshot, with an empty WAL behind it: recovery
// reads the snapshot, parses every document and re-verifies its digest.
func BenchmarkStoreReopen(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	xml := docsLargeXML()
	for d := 0; d < 4; d++ {
		if _, err := s.Create(fmt.Sprintf("large-%03d", d), xml); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := s.Snapshot(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{Fsync: FsyncNever})
		if err != nil {
			b.Fatal(err)
		}
		if n := len(s.Docs()); n != 4 {
			b.Fatalf("reopened store holds %d documents, want 4", n)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommit is the steady-state commit: small inserts and deletes
// in turn on a two-node document, past the first 1 100 records, each
// applied, appended to the WAL and published under the store mutex.
func BenchmarkCommit(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Create("d", "<a/>"); err != nil {
		b.Fatal(err)
	}
	ops := [2]Op{{Kind: "insert", Pattern: "/a", X: "<b/>"}, {Kind: "delete", Pattern: "/a/b"}}
	for i := 0; i < 1100; i++ {
		if _, err := s.Submit("d", ops[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit("d", ops[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShipPage reads one page of 256 committed records, the most a
// shipped append or a catch-up page carries, as the replication shipper
// does.
func BenchmarkShipPage(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Create("d", "<a/>"); err != nil {
		b.Fatal(err)
	}
	ops := [2]Op{{Kind: "insert", Pattern: "/a", X: "<b/>"}, {Kind: "delete", Pattern: "/a/b"}}
	for i := 0; i < 300; i++ {
		if _, err := s.Submit("d", ops[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames, _, ok, err := s.FramesSincePage(1, 256, 4<<20)
		if err != nil || !ok || len(frames) != 256 {
			b.Fatalf("page: %d frames, ok %v, %v", len(frames), ok, err)
		}
	}
}

// BenchmarkAdmitScreen runs the admission check of stale-base inserts
// and deletes against 1–4 window entries, on one docs-small-shaped
// document (~60 nodes): eight slots of two to four entries, and a window
// of inserts and deletes on those slots. Each operation is one
// admission, the store mutex held as Submit holds it. Most window
// entries are settled by the static screen, the rest by the concrete
// check; admission changes nothing, so the document keeps its size.
func BenchmarkAdmitScreen(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var x strings.Builder
	x.WriteString("<log><s0>")
	for j := 0; j < 8; j++ {
		fmt.Fprintf(&x, "<b%d>%s</b%d>", j, strings.Repeat("<item><v/></item>", 2+j%3), j)
	}
	x.WriteString("</s0></log>")
	if _, err := s.Create("small-000", x.String()); err != nil {
		b.Fatal(err)
	}
	op := func(kind string, slot int) Op {
		if kind == "insert" {
			return Op{Kind: kind, Pattern: fmt.Sprintf("/log/s0/b%d", slot), X: "<n><v/></n>"}
		}
		return Op{Kind: kind, Pattern: fmt.Sprintf("/log/s0/b%d/n", slot)}
	}
	// The window: an insert into every slot, and after every second
	// insert a delete of the entries the slot before it holds, so the
	// last four entries mix both kinds.
	for j := 0; j < 8; j++ {
		if _, err := s.Submit("small-000", op("insert", j)); err != nil {
			b.Fatal(err)
		}
		if j%2 == 1 {
			if _, err := s.Submit("small-000", op("delete", j-1)); err != nil {
				b.Fatal(err)
			}
		}
	}
	d := s.docs["small-000"]
	type staleOp struct {
		op  Op
		upd ops.Update
	}
	var stale []staleOp
	for lag := 1; lag <= 4; lag++ {
		base := d.hist[len(d.hist)-1-lag].lsn
		for j := 0; j < 8; j++ {
			for _, kind := range []string{"insert", "delete"} {
				o := op(kind, j)
				o.BaseLSN = base
				u, _, err := s.parseUpdate(o)
				if err != nil {
					b.Fatal(err)
				}
				stale = append(stale, staleOp{o, u})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		so := stale[i%len(stale)]
		s.mu.Lock()
		_, err := s.admit(d, so.op, nil, so.upd)
		s.mu.Unlock()
		var ce *ConflictError
		if err != nil && !errors.As(err, &ce) {
			b.Fatal(err)
		}
	}
}
