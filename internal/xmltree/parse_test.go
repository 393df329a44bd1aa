package xmltree

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// TestElementOnlyFormTakesOnePass: input in the element-only form is
// read by parseElements, and any byte outside it or any malformation
// leaves the input to decodeXML. Both paths are held to the same result
// by FuzzParse; this pins which one runs.
func TestElementOnlyFormTakesOnePass(t *testing.T) {
	for _, src := range []string{
		"<a/>",
		"<n><v/></n>",
		" <a >\n<b\t/>\r\n<c\n></c ></a\t> ",
		"<a1><b-2.c/><_d.3-/></a1>",
		"<a></a>",
	} {
		if _, err := parseElements([]byte(src), ParseLimits{}); err != nil {
			t.Errorf("parseElements(%q) = %v, want a tree", src, err)
		}
	}
	for _, src := range []string{
		"",
		"  ",
		`<a x="1"/>`,
		"<a>text</a>",
		"<a><!--c--></a>",
		`<?xml version="1.0"?><a/>`,
		"<a>&amp;</a>",
		"<p:a/>",
		"<é/>",
		"<1a/>",
		"<a/ >",
		"< a/>",
		"<a></b>",
		"<a></a >x",
		"<a/><b/>",
		"<a>",
		"<a><b/>",
		"</a>",
		"<a",
		"\ufeff<a/>",
	} {
		if _, err := parseElements([]byte(src), ParseLimits{}); err != errNotElementOnly {
			t.Errorf("parseElements(%q) = %v, want errNotElementOnly", src, err)
		}
	}
}

// TestParseReadsAnyReaderLikeTheReference: the input is read ahead into
// memory, so readers that split it oddly, fail partway, or run past
// MaxBytes must give what decodeXML gives when it streams the same
// reader.
func TestParseReadsAnyReaderLikeTheReference(t *testing.T) {
	boom := errors.New("boom")
	doc := "<r><a/><b><c/></b></r>"
	for _, tc := range []struct {
		name string
		lim  ParseLimits
		r    func() io.Reader
	}{
		{"one byte at a time", ParseLimits{}, func() io.Reader { return iotest.OneByteReader(strings.NewReader(doc)) }},
		{"data with EOF", ParseLimits{}, func() io.Reader { return iotest.DataErrReader(strings.NewReader(doc)) }},
		{"error after a whole document", ParseLimits{}, func() io.Reader {
			return io.MultiReader(strings.NewReader(doc), iotest.ErrReader(boom))
		}},
		{"error inside the root", ParseLimits{}, func() io.Reader {
			return io.MultiReader(strings.NewReader("<r><a/>"), iotest.ErrReader(boom))
		}},
		{"error after a malformation", ParseLimits{}, func() io.Reader {
			return io.MultiReader(strings.NewReader("<r></a>"), iotest.ErrReader(boom))
		}},
		{"error at MaxBytes", ParseLimits{MaxBytes: int64(len(doc))}, func() io.Reader {
			return io.MultiReader(strings.NewReader(doc), iotest.ErrReader(boom))
		}},
		{"exactly MaxBytes", ParseLimits{MaxBytes: int64(len(doc))}, func() io.Reader { return strings.NewReader(doc) }},
		{"one byte over MaxBytes", ParseLimits{MaxBytes: int64(len(doc)) - 1}, func() io.Reader { return strings.NewReader(doc) }},
		{"data with EOF over MaxBytes", ParseLimits{MaxBytes: int64(len(doc)) - 1}, func() io.Reader {
			return iotest.DataErrReader(strings.NewReader(doc))
		}},
		{"whitespace over MaxBytes", ParseLimits{MaxBytes: int64(len(doc))}, func() io.Reader { return strings.NewReader(doc + " ") }},
		{"over MaxBytes one byte at a time", ParseLimits{MaxBytes: 5}, func() io.Reader { return iotest.OneByteReader(strings.NewReader(doc)) }},
		{"malformed before MaxBytes", ParseLimits{MaxBytes: 8}, func() io.Reader { return strings.NewReader("<r></a>" + doc) }},
		{"no length past the first buffer", ParseLimits{}, func() io.Reader {
			return iotest.HalfReader(strings.NewReader("<r>" + strings.Repeat("<c/>", 300) + "</r>"))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseWithLimits(tc.r(), tc.lim)
			want, wantErr := decodeXML(tc.r(), tc.lim)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("err = %v, reference err = %v", err, wantErr)
			}
			if err == nil && !sameTree(got, want) {
				t.Fatalf("tree %s, reference %s", got, want)
			}
			if errors.Is(wantErr, boom) && !errors.Is(err, boom) {
				t.Fatalf("err = %v does not wrap the read error", err)
			}
		})
	}
}

// logDoc builds a document shaped like the benchmark's docs workloads:
// /log/sK/bJ slots holding items(K, J) <item><v/></item> entries.
func logDoc(sections, slots int, items func(s, j int) int) string {
	var b strings.Builder
	b.WriteString("<log>")
	for s := 0; s < sections; s++ {
		fmt.Fprintf(&b, "<s%d>", s)
		for j := 0; j < slots; j++ {
			fmt.Fprintf(&b, "<b%d>", j)
			for k := 0; k < items(s, j); k++ {
				b.WriteString("<item><v/></item>")
			}
			fmt.Fprintf(&b, "</b%d>", j)
		}
		fmt.Fprintf(&b, "</s%d>", s)
	}
	b.WriteString("</log>")
	return b.String()
}

// parsedSink keeps BenchmarkParse's result live.
var parsedSink *Tree

// BenchmarkParse parses what the store parses most: an insert payload,
// and documents shaped like docs-small's (483 bytes) and docs-large's
// (33 KB, 3 857 nodes).
func BenchmarkParse(b *testing.B) {
	for _, bc := range []struct{ name, src string }{
		{"payload", "<n><v/></n>"},
		{"docs-small", logDoc(1, 8, func(_, j int) int { return 2 + j%3 })},
		{"docs-large", logDoc(16, 16, func(s, j int) int { return 5 + (7*s+3*j)%5 })},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t, err := ParseWithLimits(strings.NewReader(bc.src), DefaultParseLimits())
				if err != nil {
					b.Fatal(err)
				}
				parsedSink = t
			}
		})
	}
}
