package store

import (
	"os"
	"path/filepath"
	"testing"
)

// dirNames lists dir's entries by name.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestPublishFileReplaces: a publish replaces the file's content and
// leaves no temp file behind.
func TestPublishFileReplaces(t *testing.T) {
	dir := t.TempDir()
	for _, content := range []string{"old\n", "new\n"} {
		if err := PublishFile(dir, "m.json", []byte(content)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "m.json"))
		if err != nil || string(got) != content {
			t.Fatalf("m.json = %q (err %v), want %q", got, err, content)
		}
		if names := dirNames(t, dir); len(names) != 1 {
			t.Fatalf("dir holds %v, want only m.json", names)
		}
	}
}

// TestPublishFileFailedRenameKeepsOld: when the rename fails (the
// target is a directory), whatever stood at the name is untouched and
// the temp file is gone.
func TestPublishFileFailedRenameKeepsOld(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "m.json")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(target, "old"), []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := PublishFile(dir, "m.json", []byte("new")); err == nil {
		t.Fatal("publish over a directory succeeded")
	}
	got, err := os.ReadFile(filepath.Join(target, "old"))
	if err != nil || string(got) != "old" {
		t.Fatalf("old content = %q (err %v), want \"old\"", got, err)
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("dir holds %v, want only m.json", names)
	}
}
