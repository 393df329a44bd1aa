package xpath

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xmlconflict/internal/pattern"
)

// TestStringMatchesReference holds Pattern.String to the renderer it
// replaced (referenceString), on random patterns of every shape the
// generator makes, outputs above the leaves included, and on every
// fuzz seed that parses. A second call returns the kept rendering and
// must agree too.
func TestStringMatchesReference(t *testing.T) {
	check := func(what string, p *pattern.Pattern) {
		t.Helper()
		want := referenceString(p)
		if got := p.String(); got != want {
			t.Fatalf("%s: String = %q, reference renders %q", what, got, want)
		}
		if got := p.String(); got != want {
			t.Fatalf("%s: second String = %q, reference renders %q", what, got, want)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		cfg := pattern.RandomConfig{
			Size: 1 + rng.Intn(14), Labels: []string{"a", "b", "c", "дом"},
			PWildcard: 0.25, PDescendant: 0.35, PBranch: []float64{0, 0.2, 0.5, 0.9}[i%4],
		}
		check(fmt.Sprintf("random pattern %d", i), pattern.Random(rng, cfg))
	}
	for _, expr := range fuzzSeeds {
		if p, err := Parse(expr); err == nil {
			check(fmt.Sprintf("seed %.40q", expr), p)
		}
	}
}

// TestStringAfterChange renders a pattern, changes it through each
// mutator, and requires the next rendering to describe the change: the
// kept rendering must not outlive it.
func TestStringAfterChange(t *testing.T) {
	for _, c := range []struct {
		name, expr string
		change     func(p *pattern.Pattern)
	}{
		{"AddChild under the output", "/b/*/a", func(p *pattern.Pattern) {
			p.AddChild(p.Output(), pattern.Child, "c")
		}},
		{"AddChild off the spine", "/b/*/a", func(p *pattern.Pattern) {
			p.AddChild(p.Root(), pattern.Descendant, "q")
		}},
		{"AddChild on a branching pattern", "a[.//c]/b[d]", func(p *pattern.Pattern) {
			p.AddChild(p.Root().Children()[0], pattern.Child, "e")
		}},
		{"SetOutput up the spine", "/b/*/a", func(p *pattern.Pattern) {
			p.SetOutput(p.Root())
		}},
		{"SetOutput into a predicate", "a[.//c]/b[d]", func(p *pattern.Pattern) {
			p.SetOutput(p.Root().Children()[0])
		}},
		{"Attach", "/b/*/a", func(p *pattern.Pattern) {
			p.Attach(p.Output(), pattern.Descendant, MustParse("x[y]/z"))
		}},
	} {
		p := MustParse(c.expr)
		before := p.String()
		c.change(p)
		want := referenceString(p)
		if want == before {
			t.Fatalf("%s: the change does not show in the rendering %q", c.name, before)
		}
		if got := p.String(); got != want {
			t.Errorf("%s: String after the change = %q, want %q (was %q)", c.name, got, want, before)
		}
	}
}

// TestParseAllocs pins the parser's allocations: the pattern, its
// nodes and its child lists, whatever the expression's length.
func TestParseAllocs(t *testing.T) {
	for _, c := range []struct {
		expr string
		max  float64
	}{
		{"/b/*/a", 4},
		{"//book[.//quantity]", 4},
		{"a[.//c]/b[d][*//f]", 4},
	} {
		got := testing.AllocsPerRun(200, func() {
			if _, err := Parse(c.expr); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("Parse(%q) allocates %v times, want at most %v", c.expr, got, c.max)
		}
	}
}

// BenchmarkParse parses expressions of the shapes a detect-mix ask
// carries: linear reads and updates of two to five steps, a
// "//"-led read, and a branching one.
func BenchmarkParse(b *testing.B) {
	for _, c := range []struct{ name, expr string }{
		{"linear3", "/b/*/a"},
		{"linear5", "/A/C//D/*/E"},
		{"descendant-led", "//book[.//quantity]"},
		{"branching", "/a[.//c]/b[d][*//f]"},
		{"linear40", strings.Repeat("/a", 40)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(c.expr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
