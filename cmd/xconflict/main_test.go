package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"conflict", []string{"-read", "//C", "-insert", "/*/B", "-x", "<C/>"}, 1},
		{"no conflict", []string{"-read", "//D", "-insert", "/*/B", "-x", "<C/>"}, 0},
		{"delete conflict", []string{"-read", "/a/b/c", "-delete", "/a/b"}, 1},
		{"delete no conflict", []string{"-read", "/a", "-delete", "/a/b"}, 0},
		{"tree semantics", []string{"-read", "/a", "-delete", "/a/b", "-sem", "tree"}, 1},
		{"value semantics", []string{"-read", "/a", "-delete", "/a/b", "-sem", "value"}, 1},
		{"quiet conflict", []string{"-quiet", "-read", "//C", "-insert", "/*/B", "-x", "<C/>"}, 1},
		{"shrink", []string{"-shrink", "-read", "//C", "-insert", "/*/B", "-x", "<C/>"}, 1},
		{"missing read", []string{"-insert", "/a", "-x", "<b/>"}, 2},
		{"both ops", []string{"-read", "/a", "-insert", "/a", "-delete", "/a/b"}, 2},
		{"neither op", []string{"-read", "/a"}, 2},
		{"bad read xpath", []string{"-read", "a[", "-delete", "/a/b"}, 2},
		{"bad insert xpath", []string{"-read", "/a", "-insert", "]["}, 2},
		{"bad delete xpath", []string{"-read", "/a", "-delete", "]["}, 2},
		{"bad xml", []string{"-read", "/a", "-insert", "/a", "-x", "<unclosed>"}, 2},
		{"bad semantics", []string{"-read", "/a", "-delete", "/a/b", "-sem", "bogus"}, 2},
		{"delete of root", []string{"-read", "/a", "-delete", "/a"}, 2},
		{"branching read search", []string{"-read", "/a[q]/b", "-insert", "/a", "-x", "<b/>", "-max", "4"}, 1},
		{"missing schema file", []string{"-schema", "/nonexistent", "-read", "/a", "-delete", "/a/b"}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := run(c.args); got != c.want {
				t.Fatalf("run(%v) = %d, want %d", c.args, got, c.want)
			}
		})
	}
}

func TestSchemaFlag(t *testing.T) {
	schema := `
root inventory
inventory: book*
book: title quantity
quantity: low?
title:
low:
`
	path := t.TempDir() + "/inv.xds"
	if err := os.WriteFile(path, []byte(schema), 0o644); err != nil {
		t.Fatal(err)
	}
	// Schema-free this conflicts; under the schema the insert can never
	// fire (quantity is not a child of inventory).
	args := []string{"-read", "//low", "-insert", "/inventory/quantity", "-x", "<low/>"}
	if got := run(args); got != 1 {
		t.Fatalf("schema-free: exit %d, want 1", got)
	}
	if got := run(append([]string{"-schema", path}, args...)); got != 0 {
		t.Fatalf("under schema: exit != 0")
	}
	// A bad schema file is a usage error.
	bad := t.TempDir() + "/bad.xds"
	os.WriteFile(bad, []byte("x: undeclared"), 0o644)
	if got := run(append([]string{"-schema", bad}, args...)); got != 2 {
		t.Fatalf("bad schema: exit != 2")
	}
}

func TestJSONOutput(t *testing.T) {
	// Exit codes carry through JSON mode.
	if got := run([]string{"-json", "-read", "//C", "-insert", "/*/B", "-x", "<C/>"}); got != 1 {
		t.Fatalf("json conflict: exit %d", got)
	}
	if got := run([]string{"-json", "-read", "//D", "-insert", "/*/B", "-x", "<C/>"}); got != 0 {
		t.Fatalf("json no-conflict: exit %d", got)
	}
}

// captureStderr runs fn with os.Stderr redirected to a pipe and returns
// what was written.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	fn()
	w.Close()
	os.Stderr = old
	return <-done
}

func TestTraceFlag(t *testing.T) {
	// -trace prints the span tree to stderr at exit: a trace header, the
	// detect span with the method choice and the verdict, and the linear
	// detector's per-edge cut decisions as events.
	out := captureStderr(t, func() {
		if got := run([]string{"-trace", "-quiet", "-read", "//C", "-insert", "/*/B", "-x", "<C/>"}); got != 1 {
			t.Errorf("exit %d, want 1", got)
		}
	})
	for _, want := range []string{"trace ", "xconflict", "detect ", "method=linear", "conflict=true", "· linear.edge", "cut=true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-trace output missing %q:\n%s", want, out)
		}
	}
}

func TestSpanFlag(t *testing.T) {
	// The span tree that -span used to print is now -trace's output, so
	// -span itself is an unknown flag. For a branching read that needs
	// the NP search, the tree has a trace header, a detect span, and a
	// nested search span with its budget spend.
	captureStderr(t, func() {
		if got := run([]string{"-span", "-quiet", "-read", "//C", "-insert", "/*/B", "-x", "<C/>"}); got != 2 {
			t.Errorf("-span: exit %d, want 2 (unknown flag)", got)
		}
	})
	out := captureStderr(t, func() {
		if got := run([]string{"-trace", "-quiet", "-read", "/a[q]/b", "-insert", "/a", "-x", "<b/>", "-max", "4"}); got != 1 {
			t.Errorf("exit %d, want 1", got)
		}
	})
	if !strings.Contains(out, "trace ") || !strings.Contains(out, "xconflict") {
		t.Fatalf("no trace header in span output:\n%s", out)
	}
	if !strings.Contains(out, "detect ") || !strings.Contains(out, "method=search") {
		t.Fatalf("no search-method detect span in span output:\n%s", out)
	}
	if !strings.Contains(out, "search ") || !strings.Contains(out, "candidates=") {
		t.Fatalf("no search span with budget spend in span output:\n%s", out)
	}
}

func TestShrinkIsObserved(t *testing.T) {
	// -shrink reports through the command's channels: the -stats
	// snapshot, taken at exit, counts the shrink, and -trace shows its
	// span.
	out := captureStderr(t, func() {
		stdout := os.Stdout
		devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		os.Stdout = devnull
		defer func() { os.Stdout = stdout; devnull.Close() }()
		if got := run([]string{"-shrink", "-stats", "-trace", "-read", "//C", "-insert", "/*/B", "-x", "<C/>"}); got != 1 {
			t.Errorf("exit %d, want 1", got)
		}
	})
	for _, want := range []string{"shrink.calls", "shrink +", "reparent_steps="} {
		if !strings.Contains(out, want) {
			t.Fatalf("-shrink output missing %q:\n%s", want, out)
		}
	}
}

func TestStatsFlag(t *testing.T) {
	out := captureStderr(t, func() {
		if got := run([]string{"-stats", "-quiet", "-read", "//C", "-insert", "/*/B", "-x", "<C/>"}); got != 1 {
			t.Errorf("exit %d, want 1", got)
		}
	})
	for _, want := range []string{"detect.calls", "linear.cut_edges", "automata.products"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-stats output missing %q:\n%s", want, out)
		}
	}
}

func TestMaxInputFlag(t *testing.T) {
	schema := `
root inventory
inventory: book*
book:
`
	path := t.TempDir() + "/inv.xds"
	if err := os.WriteFile(path, []byte(schema), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-read", "//book", "-insert", "/inventory", "-x", "<book/>", "-schema", path}
	// A schema file over -max-input fails cleanly with exit 2.
	if got := run(append([]string{"-max-input", "8"}, args...)); got != 2 {
		t.Fatalf("oversized schema accepted: exit %d", got)
	}
	// The same file under a sufficient cap runs the detection.
	if got := run(append([]string{"-max-input", "4096"}, args...)); got == 2 {
		t.Fatalf("within-cap schema rejected")
	}
}
