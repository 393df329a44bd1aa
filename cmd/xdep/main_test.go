package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goodProgram = `
x = doc <x><B/><A/></x>
y = read $x//A
insert $x/B, <C/>
z = read $x//C
`

func writeProgram(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.xup")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAnalyzeFile(t *testing.T) {
	// Silence stdout noise by redirecting to a pipe we drain.
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old }()

	path := writeProgram(t, goodProgram)
	if code := run([]string{path}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if code := run([]string{"-run", path}); code != 0 {
		t.Fatalf("-run exit = %d", code)
	}
	for _, sem := range []string{"node", "tree", "value"} {
		if code := run([]string{"-sem", sem, path}); code != 0 {
			t.Fatalf("-sem %s exit = %d", sem, code)
		}
	}
}

func TestErrors(t *testing.T) {
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old }()

	if code := run([]string{"-sem", "bogus", writeProgram(t, goodProgram)}); code != 2 {
		t.Fatalf("bad semantics accepted")
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.xup")}); code != 2 {
		t.Fatalf("missing file accepted")
	}
	if code := run([]string{writeProgram(t, "garbage statement")}); code != 2 {
		t.Fatalf("bad program accepted")
	}
}

func TestOptimizeFlag(t *testing.T) {
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old }()

	path := writeProgram(t, `
x = doc <x><B/><A/></x>
y = read $x/*/A
insert $x/B, <C/>
u = read $x/*/A
`)
	if code := run([]string{"-O", "-run", path}); code != 0 {
		t.Fatalf("-O exit = %d", code)
	}
}

func TestMaxInputFlag(t *testing.T) {
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old }()

	path := writeProgram(t, goodProgram)
	// A file larger than -max-input fails cleanly with exit 2.
	if code := run([]string{"-max-input", "8", path}); code != 2 {
		t.Fatalf("oversized program accepted: exit = %d", code)
	}
	// The same file passes under a sufficient cap.
	if code := run([]string{"-max-input", "1048576", path}); code != 0 {
		t.Fatalf("within-cap program rejected: exit = %d", code)
	}

	// The stdin path honors the same bound.
	stdin := os.Stdin
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdin = r
	defer func() { os.Stdin = stdin }()
	go func() {
		w.WriteString(goodProgram)
		w.Close()
	}()
	if code := run([]string{"-max-input", "8"}); code != 2 {
		t.Fatalf("oversized stdin accepted: exit = %d", code)
	}
}

// stderrOf runs fn with stdout discarded and stderr captured, and
// returns what fn wrote to stderr.
func stderrOf(t *testing.T, fn func()) string {
	t.Helper()
	oldOut, oldErr := os.Stdout, os.Stderr
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout, os.Stderr = devnull, w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	fn()
	w.Close()
	devnull.Close()
	os.Stdout, os.Stderr = oldOut, oldErr
	return <-done
}

func TestTraceFlag(t *testing.T) {
	// -trace prints the analysis's span tree at exit: each pair's cache
	// disposition, the detect span's method choice, and the linear
	// detector's per-edge decisions.
	path := writeProgram(t, goodProgram)
	out := stderrOf(t, func() {
		if code := run([]string{"-trace", path}); code != 0 {
			t.Errorf("exit = %d", code)
		}
	})
	for _, want := range []string{"trace ", "xdep", "detect.cached", "disposition=miss", "method=linear", "· linear.edge"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-trace output missing %q:\n%s", want, out)
		}
	}

	// A program with more pairs than the trace's span cap holds says how
	// many spans it dropped.
	var big strings.Builder
	big.WriteString("x = doc <x/>\n")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&big, "r%d = read $x/a%d\n", i, i)
	}
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&big, "insert $x/b%d, <c/>\n", i)
	}
	path = writeProgram(t, big.String())
	out = stderrOf(t, func() {
		if code := run([]string{"-trace", path}); code != 0 {
			t.Errorf("exit = %d", code)
		}
	})
	if !strings.Contains(out, "spans dropped by cap") {
		t.Fatalf("capped trace does not report its drops:\n%.2000s", out)
	}
}

func TestStatsAtExit(t *testing.T) {
	// The -stats snapshot is taken at exit, so it includes the -O
	// re-analysis, whose pairs all hit the shared verdict cache.
	out := stderrOf(t, func() {
		if code := run([]string{"-stats", "-O", "../../examples/testdata/section1.xup"}); code != 0 {
			t.Errorf("exit = %d", code)
		}
	})
	hits := ""
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "detector_cache.hits" {
			hits = f[1]
		}
	}
	if hits != "3" {
		t.Fatalf("detector_cache.hits = %q, want 3 (analysis + -O re-analysis):\n%s", hits, out)
	}
}
