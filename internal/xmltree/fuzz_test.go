package xmltree

import (
	"errors"
	"strings"
	"testing"
)

// FuzzParse checks XML parsing. No input panics. Every accepted document
// serializes to XML that parses again, to an isomorphic tree when
// UnsafeLabel finds nothing: serialization escapes other labels lossily
// (<é/> comes back as <n-ue9/>), so for those only the re-parse is
// asserted; and its one-pass DigestXML equals Digest and XML. And ParseWithLimits, whichever path reads the input, returns
// what the encoding/xml reference decodeXML returns on the same bytes —
// the same error text, or the same tree with the same labels, ids and
// child order — under the default limits and under small fuzzed ones.
// Deep-nesting seeds steer the fuzzer toward the ParseLimits guard
// rails: inputs past a bound must fail with the typed *LimitError, never
// by exhausting memory or by a panic.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"<a/>",
		"<a><b/><c><d/></c></a>",
		"<a>text<b x='1'/><!--c--></a>",
		"<a>",
		"<a></b>",
		"<a/><b/>",
		"",
		"<a><a><a/></a></a>",
		"<?xml version=\"1.0\"?><r><x/></r>",
		"<é/>",
		// The element-only form's edges: whitespace inside tags, a space
		// between / and >, names with digits, - and ., a mismatched end
		// tag, trailing text.
		" <a >\n<b\t/>\r\n<c\n></c ></a\t> ",
		"<a/ >",
		"<a></a\t>",
		"<a1><b-2.c/><_d.3-/></a1>",
		"<a><b></a></b>",
		"<a/>x",
		"<p:a/>",
		// Deep-nesting corpus: at, below, and beyond the default depth
		// bound, plus an unclosed spine (torn bomb).
		strings.Repeat("<a>", 512) + "<b/>" + strings.Repeat("</a>", 512),
		strings.Repeat("<x>", 4096) + strings.Repeat("</x>", 4096),
		strings.Repeat("<x>", 4200) + strings.Repeat("</x>", 4200),
		strings.Repeat("<deep>", 1000),
		"<r>" + strings.Repeat("<c/>", 2000) + "</r>",
	} {
		f.Add(seed, uint8(0), uint8(0), uint16(0))
	}
	// Each limit at its bound and one past it; the byte bound one byte
	// short of the input; a limit reached before a malformation.
	nodes3 := "<r><c/><c/></r>"
	f.Add(deepDoc(4), uint8(4), uint8(0), uint16(0))
	f.Add(deepDoc(5), uint8(4), uint8(0), uint16(0))
	f.Add(nodes3, uint8(0), uint8(3), uint16(0))
	f.Add(nodes3, uint8(0), uint8(2), uint16(0))
	f.Add(nodes3, uint8(0), uint8(0), uint16(len(nodes3)))
	f.Add(nodes3, uint8(0), uint8(0), uint16(len(nodes3)-1))
	f.Add("<a><b/></c>", uint8(0), uint8(1), uint16(0))
	f.Fuzz(func(t *testing.T, src string, maxDepth, maxNodes uint8, maxBytes uint16) {
		tr, err := parseAgainstReference(t, src, DefaultParseLimits())
		parseAgainstReference(t, src, ParseLimits{MaxDepth: int(maxDepth), MaxNodes: int(maxNodes), MaxBytes: int64(maxBytes)})
		if err != nil {
			var le *LimitError
			if errors.As(err, &le) && le.Limit == "" {
				t.Fatalf("limit error names no dimension: %v", err)
			}
			return
		}
		if tr.Size() < 1 {
			t.Fatalf("accepted document with no nodes: %q", src)
		}
		back, err := ParseString(tr.XML())
		if err != nil {
			t.Fatalf("serialized form unparseable: %q → %q: %v", src, tr.XML(), err)
		}
		if _, unsafe := tr.UnsafeLabel(); !unsafe && !Isomorphic(tr, back) {
			t.Fatalf("round trip changed %q", src)
		}
		if digest, xml := tr.DigestXML(); digest != tr.Digest() || xml != tr.XML() {
			t.Fatalf("DigestXML of %q = %s, %q; want Digest %s, XML %q", src, digest, xml, tr.Digest(), tr.XML())
		}
	})
}

// parseAgainstReference parses src with ParseWithLimits and fails t
// unless the result is what decodeXML returns on the same input.
func parseAgainstReference(t *testing.T, src string, lim ParseLimits) (*Tree, error) {
	t.Helper()
	got, err := ParseWithLimits(strings.NewReader(src), lim)
	want, wantErr := decodeXML(strings.NewReader(src), lim)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%q under %+v: err = %v, reference err = %v", src, lim, err, wantErr)
	case err != nil:
		var le, wantLE *LimitError
		if err.Error() != wantErr.Error() || errors.As(err, &le) != errors.As(wantErr, &wantLE) {
			t.Fatalf("%q under %+v: err = %v, reference err = %v", src, lim, err, wantErr)
		}
	case !sameTree(got, want):
		t.Fatalf("%q under %+v: tree %s, reference %s", src, lim, got, want)
	}
	return got, err
}

// sameTree reports whether a and b are the same tree node for node:
// labels, ids, child order, and the next id either would assign.
func sameTree(a, b *Tree) bool {
	var same func(x, y *Node) bool
	same = func(x, y *Node) bool {
		if x.label != y.label || x.id != y.id || len(x.children) != len(y.children) {
			return false
		}
		for i := range x.children {
			if !same(x.children[i], y.children[i]) {
				return false
			}
		}
		return true
	}
	return a.nextID == b.nextID && same(a.root, b.root)
}
