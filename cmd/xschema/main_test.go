package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const inventorySchema = `
root inventory
inventory: book*
book: title quantity publisher?
quantity: low?
title:
publisher: name
name:
low:
`

func schemaFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "inv.xds")
	if err := os.WriteFile(path, []byte(inventorySchema), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// withIO feeds stdin and swallows stdout.
func withIO(t *testing.T, in string, f func()) {
	t.Helper()
	oldIn, oldOut := os.Stdin, os.Stdout
	defer func() { os.Stdin, os.Stdout = oldIn, oldOut }()
	rIn, wIn, _ := os.Pipe()
	go func() { io.WriteString(wIn, in); wIn.Close() }()
	os.Stdin = rIn
	rOut, wOut, _ := os.Pipe()
	os.Stdout = wOut
	done := make(chan struct{})
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, rOut)
		close(done)
	}()
	f()
	wOut.Close()
	<-done
}

func TestValidateSubcommand(t *testing.T) {
	sf := schemaFile(t)
	var code int
	withIO(t, "<inventory><book><title/><quantity/></book></inventory>", func() {
		code = run([]string{"-s", sf, "validate"})
	})
	if code != 0 {
		t.Fatalf("valid doc: exit %d", code)
	}
	withIO(t, "<inventory><zzz/></inventory>", func() {
		code = run([]string{"-s", sf, "validate"})
	})
	if code != 1 {
		t.Fatalf("invalid doc: exit %d", code)
	}
}

func TestSatSubcommand(t *testing.T) {
	sf := schemaFile(t)
	var code int
	withIO(t, "", func() { code = run([]string{"-s", sf, "sat", "//book/quantity/low"}) })
	if code != 0 {
		t.Fatalf("satisfiable pattern: exit %d", code)
	}
	withIO(t, "", func() { code = run([]string{"-s", sf, "sat", "/inventory/low"}) })
	if code != 1 {
		t.Fatalf("unsatisfiable pattern: exit %d", code)
	}
}

func TestPreserveSubcommand(t *testing.T) {
	sf := schemaFile(t)
	var code int
	withIO(t, "", func() { code = run([]string{"-s", sf, "preserve", "delete", "//publisher"}) })
	if code != 0 {
		t.Fatalf("optional delete: exit %d", code)
	}
	withIO(t, "", func() { code = run([]string{"-s", sf, "preserve", "delete", "//quantity"}) })
	if code != 1 {
		t.Fatalf("required delete: exit %d", code)
	}
	withIO(t, "", func() { code = run([]string{"-s", sf, "preserve", "insert", "//book", "<title/>"}) })
	if code != 1 {
		t.Fatalf("duplicate title insert: exit %d", code)
	}
}

func TestConflictSubcommand(t *testing.T) {
	sf := schemaFile(t)
	var code int
	withIO(t, "", func() {
		code = run([]string{"-s", sf, "conflict", "//book/low", "delete", "//book"})
	})
	if code != 0 {
		t.Fatalf("statically pruned conflict: exit %d", code)
	}
	withIO(t, "", func() {
		code = run([]string{"-s", sf, "-max", "6", "conflict", "//book/quantity", "delete", "//book[.//low]"})
	})
	if code != 1 {
		t.Fatalf("genuine schema conflict: exit %d", code)
	}
}

func TestUsageErrors(t *testing.T) {
	sf := schemaFile(t)
	cases := [][]string{
		nil,
		{"-s", sf},
		{"-s", "/nonexistent/schema", "validate"},
		{"-s", sf, "unknown"},
		{"-s", sf, "sat"},
		{"-s", sf, "sat", "]["},
		{"-s", sf, "preserve"},
		{"-s", sf, "preserve", "insert", "/a"},
		{"-s", sf, "preserve", "replace", "/a"},
		{"-s", sf, "conflict", "//a"},
		{"-s", sf, "conflict", "][", "delete", "/a/b"},
	}
	for _, args := range cases {
		var code int
		withIO(t, "", func() { code = run(args) })
		if code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	// Bad stdin for validate.
	var code int
	withIO(t, "not xml", func() { code = run([]string{"-s", sf, "validate"}) })
	if code != 2 {
		t.Errorf("bad stdin: exit %d", code)
	}
	// Bad schema content.
	bad := filepath.Join(t.TempDir(), "bad.xds")
	os.WriteFile(bad, []byte("a: undeclared"), 0o644)
	withIO(t, "", func() { code = run([]string{"-s", bad, "validate"}) })
	if code != 2 {
		t.Errorf("bad schema: exit %d", code)
	}
}

func TestTraceFlag(t *testing.T) {
	// -trace prints the conflict check's span tree at exit, for both
	// outcomes: a static prune, and a search over valid trees.
	sf := schemaFile(t)
	cases := []struct {
		args []string
		code int
		want []string
	}{
		{[]string{"-s", sf, "-trace", "conflict", "//book/low", "delete", "//book"}, 0,
			[]string{"trace ", "xschema", "detect ", "method=schema-static", "detail="}},
		{[]string{"-s", sf, "-max", "6", "-trace", "conflict", "//book/quantity", "delete", "//book[.//low]"}, 1,
			[]string{"method=schema-search", "conflict=true", "search ", "schema=true", "candidates="}},
	}
	for _, c := range cases {
		oldErr := os.Stderr
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
		var code int
		withIO(t, "", func() { code = run(c.args) })
		w.Close()
		os.Stderr = oldErr
		out := <-done
		if code != c.code {
			t.Fatalf("run(%v) = %d, want %d", c.args, code, c.code)
		}
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Fatalf("run(%v): -trace output missing %q:\n%s", c.args, want, out)
			}
		}
	}
}
