package xpath

import (
	"strings"
	"testing"

	"xmlconflict/internal/pattern"
)

// fuzzSeeds are FuzzParse's seed corpus; the render tests reuse them.
// Deep-nesting seeds (long step spines, deeply nested predicates) steer
// the fuzzer toward the recursive-descent paths where stack depth
// tracks input depth.
var fuzzSeeds = []string{
	strings.Repeat("/a", 500),
	strings.Repeat("a[", 300) + "b" + strings.Repeat("]", 300),
	"//" + strings.Repeat("*[.//x]/", 100) + "y",
	strings.Repeat("a[", 400), // torn deep predicate nest
	"a",
	"/a/b//c",
	"//book[.//quantity]",
	"a[.//c]/b[d][*//f]",
	"/*/A",
	"a[b[c][.//d]/e]",
	"a[",
	"]",
	"a//",
	"a[.]",
	"//",
	"a[b]]",
	" a / b [ c ] ",
	"*[*][*]/*",
	"/книга//著者[מחבר]",
	"a/€",
	"a/\xff",
	"\v",
	"a b",
	"/b/*/a",
}

// FuzzParse checks parser robustness: Parse must never panic, and any
// accepted expression must yield a valid pattern that round-trips through
// the pattern's String rendering. It also holds Parse and String to the
// references they replaced (reference_test.go): the same pattern, node
// for node with the same output node, or the same error text, and the
// same rendering.
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		p, err := Parse(expr)
		ref, refErr := referenceParse(expr)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Parse(%q) error = %v, reference error = %v", expr, err, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				t.Fatalf("Parse(%q) error = %q, reference error = %q", expr, err, refErr)
			}
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("Parse(%q) produced invalid pattern: %v", expr, verr)
		}
		if !pattern.Equal(p, ref) || shape(p) != shape(ref) {
			t.Fatalf("Parse(%q) = %s, reference = %s", expr, shape(p), shape(ref))
		}
		if got, want := p.String(), referenceString(ref); got != want {
			t.Fatalf("Parse(%q).String() = %q, reference renders %q", expr, got, want)
		}
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q is unparseable: %v", expr, p.String(), err)
		}
		if !pattern.Equal(p, back) {
			t.Fatalf("round trip changed %q: %q", expr, p.String())
		}
	})
}

// shape lists a pattern's nodes in preorder, each with its axis, label
// and child count, and marks the output node: two patterns with the
// same shape have the same nodes in the same child order.
func shape(p *pattern.Pattern) string {
	var b strings.Builder
	for _, n := range p.Nodes() {
		if n.Parent() != nil {
			b.WriteString(n.Axis().String())
		}
		b.WriteString(n.Label())
		if n == p.Output() {
			b.WriteByte('!')
		}
		b.WriteByte('(')
		b.WriteString(strings.Repeat("+", len(n.Children())))
		b.WriteByte(')')
	}
	return b.String()
}
