package pattern

import (
	"sync"
	"testing"
)

// paperSteps are the Figure 2 pattern a[.//c]/b[d][*//f] as Build steps,
// in the order buildPaper adds its nodes; step 2 (b) is the output.
var paperSteps = []Step{
	{Label: "a", Parent: -1},
	{Label: "c", Axis: Descendant, Parent: 0},
	{Label: "b", Axis: Child, Parent: 0},
	{Label: "d", Axis: Child, Parent: 2},
	{Label: Wildcard, Axis: Child, Parent: 2},
	{Label: "f", Axis: Descendant, Parent: 4},
}

// TestBuildMatchesAddChild: Build gives the pattern the same nodes, in
// the same child order and with the same output, as adding them one by
// one.
func TestBuildMatchesAddChild(t *testing.T) {
	p, q := Build(paperSteps, 2), buildPaper()
	if !Equal(p, q) || p.String() != q.String() {
		t.Fatalf("Build = %s, AddChild = %s", p, q)
	}
	pn, qn := p.Nodes(), q.Nodes()
	for i := range pn {
		if pn[i].Label() != qn[i].Label() || pn[i].Axis() != qn[i].Axis() || len(pn[i].Children()) != len(qn[i].Children()) {
			t.Fatalf("node %d: Build %q, AddChild %q", i, pn[i].Label(), qn[i].Label())
		}
		if (pn[i].Parent() == nil) != (qn[i].Parent() == nil) {
			t.Fatalf("node %d: parents differ", i)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildChildListsStayApart: the built nodes' child lists share one
// array, so a child added later must not overwrite a neighbour's.
func TestBuildChildListsStayApart(t *testing.T) {
	p := Build(paperSteps, 2)
	root := p.Root()
	c, b := root.Children()[0], root.Children()[1]
	p.AddChild(c, Child, "x")
	p.AddChild(root, Child, "y")
	if got := b.Children(); len(got) != 2 || got[0].Label() != "d" || got[1].Label() != Wildcard {
		t.Fatalf("b's children after adding under c and the root: %v", got)
	}
	if got := root.Children(); len(got) != 3 || got[0] != c || got[1] != b || got[2].Label() != "y" {
		t.Fatalf("root's children: %v", got)
	}
	if want := "/a[.//c[x]][y]/b[*[.//f]][d]"; p.String() != want {
		t.Fatalf("String = %q, want %q", p.String(), want)
	}
}

// TestBuildRejectsBadSteps: a parent that does not precede its child, or
// an output outside the steps, is a caller's bug and panics.
func TestBuildRejectsBadSteps(t *testing.T) {
	for name, build := range map[string]func(){
		"no steps":       func() { Build(nil, 0) },
		"output outside": func() { Build(paperSteps, len(paperSteps)) },
		"forward parent": func() { Build([]Step{{Label: "a", Parent: -1}, {Label: "b", Parent: 1}}, 0) },
		"second root":    func() { Build([]Step{{Label: "a", Parent: -1}, {Label: "b", Parent: -1}}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Build did not panic", name)
				}
			}()
			build()
		}()
	}
}

// TestStringSharedAcrossGoroutines renders one shared pattern from many
// goroutines at once, first and kept renderings alike; under -race it
// checks that the kept rendering is published safely.
func TestStringSharedAcrossGoroutines(t *testing.T) {
	for _, p := range []*Pattern{buildPaper(), Build([]Step{{Label: "b", Parent: -1}, {Label: Wildcard, Parent: 0}, {Label: "a", Parent: 1}}, 2)} {
		want := p.render()
		var wg sync.WaitGroup
		errs := make(chan string, 16)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					if got := p.String(); got != want {
						errs <- got
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for got := range errs {
			t.Fatalf("concurrent String = %q, want %q", got, want)
		}
	}
}

// TestStringKeptUntilChanged: a second String returns the kept
// rendering without rendering again, and each mutator drops it.
func TestStringKeptUntilChanged(t *testing.T) {
	p := buildPaper()
	first := p.String()
	if p.rendered.Load() == nil {
		t.Fatal("String kept no rendering")
	}
	if got := testing.AllocsPerRun(100, func() { _ = p.String() }); got != 0 {
		t.Fatalf("a kept rendering costs %v allocations, want 0", got)
	}
	for name, change := range map[string]func(){
		"AddChild":  func() { p.AddChild(p.Root(), Child, "z") },
		"SetOutput": func() { p.SetOutput(p.Root()) },
		"Attach":    func() { p.Attach(p.Root(), Descendant, New("w")) },
	} {
		_ = p.String()
		change()
		if p.rendered.Load() != nil {
			t.Errorf("%s kept the rendering", name)
		}
		if got := p.String(); got == first || got != p.render() {
			t.Errorf("%s: String = %q, render = %q", name, got, p.render())
		}
		first = p.String()
	}
}
