package store

import (
	"bytes"
	"slices"
	"testing"

	"xmlconflict/internal/core"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// FuzzWALRecord throws arbitrary bytes at the WAL's frame scanner and
// record decoder: neither may panic, the scanner must never read past
// its input or emit frames that do not re-verify, a valid prefix must
// round-trip through re-encoding, and recovery's LSN peek must read the
// LSN of every record the encoder writes.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("XCWAL001"))
	f.Add(encodeFrame([]byte(`{"lsn":1,"type":"create","doc":"d","xml":"<a/>"}`)))
	f.Add(encodeFrame([]byte(`{"lsn":2,"type":"update","doc":"d","kind":"insert","pattern":"/a","x":"<x/>","digest":"ff"}`)))
	f.Add(append(encodeFrame([]byte(`{"lsn":1}`)), encodeFrame([]byte(`{"lsn":2}`))[:5]...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, b []byte) {
		payloads, used, torn := scanFrames(b)
		if used < 0 || used > len(b) {
			t.Fatalf("used %d out of range [0,%d]", used, len(b))
		}
		if torn && used == len(b) {
			t.Fatal("torn tail reported with no unconsumed bytes")
		}
		if !torn && used != len(b) {
			t.Fatalf("clean scan consumed %d of %d bytes", used, len(b))
		}
		// Whatever the scanner accepted must survive re-framing: the
		// valid prefix is self-describing.
		var rebuilt []byte
		for _, p := range payloads {
			rebuilt = append(rebuilt, encodeFrame(p)...)
		}
		if !bytes.Equal(rebuilt, b[:used]) {
			t.Fatalf("re-encoded prefix differs: %d bytes vs %d", len(rebuilt), used)
		}
		// Decoding accepted payloads must not panic; successfully
		// decoded records must re-encode and re-decode to themselves.
		for _, p := range payloads {
			rec, err := decodeRecord(p)
			if err != nil {
				continue
			}
			out, err := encodeRecord(rec)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			back, err := decodeRecord(out)
			if err != nil || back != rec {
				t.Fatalf("record round trip: %+v vs %+v (%v)", back, rec, err)
			}
			if lsn, ok := recordLSN(out); lsn != rec.LSN || ok != (rec.LSN != 0) {
				t.Fatalf("recordLSN(%q) = %d, %v; want %d", out, lsn, ok, rec.LSN)
			}
		}
	})
}

// FuzzAdmitScreen holds the admission screen to the concrete check it
// skips. An input is two linear patterns, the kinds of the operation
// and of the committed update (reads choose a semantics), an insert
// payload both inserts graft, and a small tree standing for the
// committed update's pre-state. Whenever the screen settles the pair,
// the concrete check on that tree must pass: the read unaffected under
// its semantics, or the two updates commuting.
func FuzzAdmitScreen(f *testing.F) {
	f.Add("/a", "/a/b", uint8(1), uint8(1), "<b/>", 0, "<a><b/></a>")
	f.Add("//b", "//b", uint8(0), uint8(0), "<c/>", 1, "<a><b/></a>")
	f.Add("/a", "/a", uint8(0), uint8(0), "<b/>", 1, "<a/>")
	f.Add("//x", "/a", uint8(2), uint8(0), "<x/>", 0, "<a/>")
	f.Add("/a/c", "/a/b", uint8(2), uint8(0), "<c/>", 0, "<a><b/><c/></a>")
	f.Add("/a/*", "//b", uint8(0), uint8(1), "<a/>", 2, "<a><b><b/></b></a>")
	st := &Store{opts: Options{}.withDefaults()}
	f.Fuzz(func(t *testing.T, p1, p2 string, kind1, kind2 uint8, x string, semRaw int, doc string) {
		kinds := []string{"read", "insert", "delete"}
		k1, k2 := kinds[int(kind1)%3], kinds[1+int(kind2)%2]
		tree, err := xmltree.ParseString(doc)
		if err != nil || tree.Size() > 16 {
			t.Skip()
		}
		committed, _, err := st.parseUpdate(Op{Kind: k2, Pattern: p2, X: x})
		if err != nil || !committed.Pattern().IsLinear() {
			t.Skip()
		}
		sem := ops.Semantics(((semRaw % 3) + 3) % 3)
		var rd *ops.Read
		var upd ops.Update
		if k1 == "read" {
			p, err := xpath.Parse(p1)
			if err != nil || !p.IsLinear() {
				t.Skip()
			}
			rd = &ops.Read{P: p}
		} else {
			u, _, err := st.parseUpdate(Op{Kind: k1, Pattern: p1, X: x})
			if err != nil || !u.Pattern().IsLinear() {
				t.Skip()
			}
			upd = u
		}
		if !settled(core.NewDetectorCache(0), rd, sem, upd, committed) {
			return
		}
		if rd != nil {
			fired, err := ops.FiredSemantics(*rd, committed, tree)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(fired, sem) {
				t.Fatalf("screen settled read %s (%s) against %s %s, but %s fires on %s",
					p1, sem, k2, p2, sem, tree.XML())
			}
			return
		}
		nc, err := ops.CommuteWitness(upd, committed, tree)
		if err != nil {
			t.Fatal(err)
		}
		if nc {
			t.Fatalf("screen settled %s %s against %s %s (payload %s), but they do not commute on %s",
				k1, p1, k2, p2, x, tree.XML())
		}
	})
}
