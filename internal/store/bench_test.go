package store

import (
	"fmt"
	"testing"
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
