package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/shard"
	"xmlconflict/internal/store"
)

// newStoreServer builds a server with the document store mounted on a
// fresh directory (unsharded; see newShardedServer for S > 1).
func newStoreServer(t *testing.T, dir string) *server {
	return newShardedServer(t, dir, 1)
}

// newShardedServer builds a server whose document space spans n store
// shards rooted at dir.
func newShardedServer(t *testing.T, dir string, n int) *server {
	t.Helper()
	s := newServer(2, time.Second, 1<<20)
	rt, err := shard.Open(dir, shard.Options{Shards: n, Store: store.Options{Metrics: s.metrics}})
	if err != nil {
		t.Fatalf("shard.Open: %v", err)
	}
	t.Cleanup(func() { rt.Close() })
	s.store = rt
	return s
}

func doJSON(t *testing.T, client *http.Client, method, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decode reply: %v", method, url, err)
	}
	return resp, out
}

func TestDocsEndpointLifecycle(t *testing.T) {
	s := newStoreServer(t, t.TempDir())
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	c := ts.Client()

	// Create.
	resp, out := doJSON(t, c, "POST", ts.URL+"/v1/docs", map[string]any{"doc": "d", "xml": "<a><b/></a>"})
	if resp.StatusCode != http.StatusCreated || out["lsn"].(float64) != 1 || out["digest"] == "" {
		t.Fatalf("create: %d %v", resp.StatusCode, out)
	}
	// Duplicate create is a 409.
	resp, out = doJSON(t, c, "POST", ts.URL+"/v1/docs", map[string]any{"doc": "d", "xml": "<a/>"})
	if resp.StatusCode != http.StatusConflict || out["reason"] != "exists" {
		t.Fatalf("duplicate create: %d %v", resp.StatusCode, out)
	}

	// Update.
	resp, out = doJSON(t, c, "POST", ts.URL+"/v1/docs/d/update",
		map[string]any{"op": "insert", "pattern": "/a/b", "x": "<c/>"})
	if resp.StatusCode != http.StatusOK || out["points"].(float64) != 1 || out["lsn"].(float64) != 2 {
		t.Fatalf("update: %d %v", resp.StatusCode, out)
	}

	// Read returns matched subtrees.
	resp, out = doJSON(t, c, "POST", ts.URL+"/v1/docs/d/update",
		map[string]any{"op": "read", "pattern": "//b"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read: %d %v", resp.StatusCode, out)
	}
	nodes := out["nodes"].([]any)
	if len(nodes) != 1 || nodes[0] != "<b><c/></b>" {
		t.Fatalf("read nodes: %v", nodes)
	}

	// Get.
	resp, out = doJSON(t, c, "GET", ts.URL+"/v1/docs/d", nil)
	if resp.StatusCode != http.StatusOK || out["xml"] != "<a><b><c/></b></a>" || out["size"].(float64) != 3 {
		t.Fatalf("get: %d %v", resp.StatusCode, out)
	}

	// Snapshot.
	resp, out = doJSON(t, c, "POST", ts.URL+"/v1/docs/d/snapshot", nil)
	if resp.StatusCode != http.StatusOK || out["lsn"].(float64) != 2 {
		t.Fatalf("snapshot: %d %v", resp.StatusCode, out)
	}

	// Delete, then 404s.
	resp, _ = doJSON(t, c, "DELETE", ts.URL+"/v1/docs/d", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drop: %d", resp.StatusCode)
	}
	resp, out = doJSON(t, c, "GET", ts.URL+"/v1/docs/d", nil)
	if resp.StatusCode != http.StatusNotFound || out["reason"] != "not-found" {
		t.Fatalf("get after drop: %d %v", resp.StatusCode, out)
	}
	resp, out = doJSON(t, c, "POST", ts.URL+"/v1/docs/d/snapshot", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("snapshot of missing doc: %d %v", resp.StatusCode, out)
	}
}

func TestDocsConflictEnvelope(t *testing.T) {
	s := newStoreServer(t, t.TempDir())
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	c := ts.Client()

	doJSON(t, c, "POST", ts.URL+"/v1/docs", map[string]any{"doc": "d", "xml": "<a/>"})
	doJSON(t, c, "POST", ts.URL+"/v1/docs/d/update", map[string]any{"op": "insert", "pattern": "/a", "x": "<x/>"})

	// A delete submitted against the pre-insert base does not commute
	// with the insert: 409 with the machine-readable conflict object.
	resp, out := doJSON(t, c, "POST", ts.URL+"/v1/docs/d/update",
		map[string]any{"op": "delete", "pattern": "//x", "base_lsn": 1})
	if resp.StatusCode != http.StatusConflict || out["reason"] != "conflict" {
		t.Fatalf("conflicting delete: %d %v", resp.StatusCode, out)
	}
	conflict, ok := out["conflict"].(map[string]any)
	if !ok {
		t.Fatalf("conflict object missing: %v", out)
	}
	if conflict["with_kind"] != "insert" || conflict["with_lsn"].(float64) != 2 ||
		conflict["base_lsn"].(float64) != 1 || conflict["semantics"] != "value" {
		t.Fatalf("conflict fields: %v", conflict)
	}
	fired := conflict["fired"].([]any)
	if len(fired) != 1 || fired[0] != "value" {
		t.Fatalf("fired: %v", fired)
	}

	// A read under tree semantics against the same base also rejects;
	// its fired list distinguishes the notions.
	resp, out = doJSON(t, c, "POST", ts.URL+"/v1/docs/d/update",
		map[string]any{"op": "read", "pattern": "/a", "semantics": "tree", "base_lsn": 1})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting read: %d %v", resp.StatusCode, out)
	}
	// The same read under node semantics is admitted: the insert did
	// not move the read's node set.
	resp, _ = doJSON(t, c, "POST", ts.URL+"/v1/docs/d/update",
		map[string]any{"op": "read", "pattern": "/a", "semantics": "node", "base_lsn": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("node-semantics read: %d", resp.StatusCode)
	}

	// Stale and future bases get their own 409 reasons.
	resp, out = doJSON(t, c, "POST", ts.URL+"/v1/docs/d/update",
		map[string]any{"op": "read", "pattern": "/a", "base_lsn": 99})
	if resp.StatusCode != http.StatusConflict || out["reason"] != "future-base" {
		t.Fatalf("future base: %d %v", resp.StatusCode, out)
	}
	if s.metrics.Counter("store.conflict_rejections").Load() == 0 {
		t.Fatal("store.conflict_rejections not visible on the shared registry")
	}
}

func TestDocsBadRequests(t *testing.T) {
	s := newStoreServer(t, t.TempDir())
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	c := ts.Client()

	cases := []struct {
		method, path string
		body         any
		reason       string
	}{
		{"POST", "/v1/docs", map[string]any{"doc": "bad id!", "xml": "<a/>"}, "bad-request"},
		{"POST", "/v1/docs", map[string]any{"doc": "d", "xml": "<a><unclosed>"}, "bad-request"},
		{"POST", "/v1/docs", map[string]any{"doc": "d", "xml": "<a/>", "nope": 1}, "bad-request"},
		{"POST", "/v1/docs/d/update", map[string]any{"op": "chmod", "pattern": "/a"}, "bad-request"},
		{"POST", "/v1/docs/missing/update", map[string]any{"op": "read", "pattern": "/a"}, "not-found"},
		{"DELETE", "/v1/docs/missing", nil, "not-found"},
	}
	for _, tc := range cases {
		resp, out := doJSON(t, c, tc.method, ts.URL+tc.path, tc.body)
		if resp.StatusCode/100 != 4 || out["reason"] != tc.reason {
			t.Errorf("%s %s: %d %v (want 4xx %s)", tc.method, tc.path, resp.StatusCode, out, tc.reason)
		}
	}

	// Parse limits surface as 400 "limit": a document over the default
	// depth bound is rejected at the door.
	var b strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&b, "<a>")
	}
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&b, "</a>")
	}
	resp, out := doJSON(t, c, "POST", ts.URL+"/v1/docs", map[string]any{"doc": "deep", "xml": b.String()})
	if resp.StatusCode != http.StatusBadRequest || out["reason"] != "limit" {
		t.Fatalf("deep doc: %d %v", resp.StatusCode, out)
	}
}

func TestDocsMetricsExposed(t *testing.T) {
	s := newStoreServer(t, t.TempDir())
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	c := ts.Client()
	doJSON(t, c, "POST", ts.URL+"/v1/docs", map[string]any{"doc": "d", "xml": "<a/>"})

	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	for _, metric := range []string{"store_appends", "store_fsync", "store_docs"} {
		if !strings.Contains(body.String(), metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
}

// TestStoreFsyncFlag: -store-fsync takes always or never. Any other
// value, the deleted group policy included, is a usage error that
// exits 2 before the store opens.
func TestStoreFsyncFlag(t *testing.T) {
	for _, bad := range []string{"group", "sometimes"} {
		if code := run([]string{"-store-dir", t.TempDir(), "-store-fsync", bad}); code != 2 {
			t.Errorf("-store-fsync %s: exit %d, want 2", bad, code)
		}
	}
}

// TestChaosStoreKillMidCommit is the serving-path half of the
// kill-mid-commit drill: a crash injected on the WAL append path fails
// that one request with the 500 envelope, fail-stops the store (503
// store-closed afterwards) while detection keeps serving, and a
// restart recovers the document to the last acknowledged digest.
func TestChaosStoreKillMidCommit(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s := newStoreServer(t, dir)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	c := ts.Client()

	doJSON(t, c, "POST", ts.URL+"/v1/docs", map[string]any{"doc": "d", "xml": "<a/>"})
	_, acked := doJSON(t, c, "POST", ts.URL+"/v1/docs/d/update",
		map[string]any{"op": "insert", "pattern": "/a", "x": "<x/>"})

	faultinject.Arm("store.append.partial", faultinject.Fault{Kind: faultinject.KindPanic, Times: 1})
	resp, out := doJSON(t, c, "POST", ts.URL+"/v1/docs/d/update",
		map[string]any{"op": "insert", "pattern": "/a", "x": "<y/>"})
	if resp.StatusCode != http.StatusInternalServerError || out["reason"] != "panic" {
		t.Fatalf("killed commit: %d %v", resp.StatusCode, out)
	}
	if s.metrics.Counter("serve.panics").Load() != 1 {
		t.Fatal("panic not counted")
	}

	// The store fail-stopped; the daemon keeps serving.
	resp, out = doJSON(t, c, "POST", ts.URL+"/v1/docs/d/update",
		map[string]any{"op": "read", "pattern": "/a"})
	if resp.StatusCode != http.StatusServiceUnavailable || out["reason"] != "store-closed" {
		t.Fatalf("post-crash store op: %d %v", resp.StatusCode, out)
	}
	resp, _ = doJSON(t, c, "POST", ts.URL+"/v1/detect",
		map[string]any{"read": "//a", "insert": "/*", "x": "<c/>"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detection after store crash: %d", resp.StatusCode)
	}

	// "Restart": recovery over the same directory reproduces exactly
	// the acknowledged state — torn tail cut, digest verified.
	faultinject.Reset()
	rt, err := shard.Open(dir, shard.Options{Shards: 1})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rt.Close()
	info, err := rt.Get("d")
	if err != nil {
		t.Fatalf("recovered Get: %v", err)
	}
	if info.Digest != acked["digest"].(string) || info.LSN != uint64(acked["lsn"].(float64)) {
		t.Fatalf("recovered digest %.12s lsn %d, want acknowledged %v", info.Digest, info.LSN, acked)
	}
}
