// Package shard partitions the durable document namespace across S
// in-process store shards. Each shard is a full internal/store
// instance — its own WAL, fsync policy, snapshot cadence, and
// recovery — rooted in its own subdirectory, so the per-document
// durability invariant ("never acknowledge what recovery cannot read
// back") holds shard-locally and a fail-stopped shard poisons only
// the documents it owns. Routing is consistent hashing on the
// document name (CRC-32C over virtual nodes), recorded in a
// shards.json manifest so a directory can never silently reopen with
// a different shard count and strand documents on the wrong WAL.
//
// Cross-shard operations (document listing, snapshot-all) fan out to
// every shard and merge with a deterministic order, mirroring
// DetectBatch's indexed gather: same inputs, same output order,
// regardless of which shard answered first.
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"xmlconflict/internal/store"
	"xmlconflict/internal/telemetry/span"
)

const (
	// manifestName records the sharding layout inside the store root.
	manifestName = "shards.json"
	// vnodesPerShard is the virtual-node count per shard on the hash
	// ring; 64 keeps the max/mean ownership skew low single-digit
	// percent while the ring stays small enough to rebuild at Open.
	vnodesPerShard = 64
	// hashScheme names the routing function in the manifest; any
	// future change to the ring construction must bump it so old
	// directories refuse to open under a router that would misroute
	// their documents.
	hashScheme = "crc32c-ring/v1"
)

// castagnoli is the CRC-32C table, matching the WAL's checksum flavor.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a shard router.
type Options struct {
	// Shards is the number of in-process shards; 0 or 1 selects the
	// unsharded layout (one store rooted directly in dir, exactly what
	// a pre-sharding directory holds).
	Shards int
	// Store is the template applied to every shard: fsync policy,
	// snapshot cadence, limits. Store.Metrics is the shared registry;
	// with more than one shard each store receives a
	// Labeled("shard", i) view of it, so per-shard store.* series
	// coexist on one /metrics page.
	Store store.Options
}

// manifest pins a directory to its sharding layout.
type manifest struct {
	Version int    `json:"version"`
	Shards  int    `json:"shards"`
	Scheme  string `json:"scheme"`
}

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash  uint32
	shard int
}

// Router routes document operations to the shard owning each name and
// gathers cross-shard reads deterministically. All methods are safe
// for concurrent use; per-shard serialization lives in the stores.
type Router struct {
	dir    string
	n      int
	stores []*store.Store
	ring   []ringPoint
}

// Open loads (or initializes) a sharded document space rooted at dir.
// A fresh directory is laid out as shard-00/..shard-NN/ plus the
// manifest; reopening demands the same shard count and hash scheme. A
// legacy unsharded directory (a wal.log at the root, no manifest) is
// honored when Shards <= 1 and refused otherwise — resharding in
// place would strand its documents.
func Open(dir string, opts Options) (*Router, error) {
	n := opts.Shards
	if n <= 0 {
		n = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: create dir: %w", err)
	}
	legacy, err := legacyLayout(dir)
	if err != nil {
		return nil, err
	}
	man, haveMan, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	switch {
	case haveMan:
		if man.Shards != n {
			return nil, fmt.Errorf("shard: %s was laid out with %d shards; refusing to open with %d (documents would route to the wrong WAL)", dir, man.Shards, n)
		}
		if man.Scheme != hashScheme {
			return nil, fmt.Errorf("shard: %s uses hash scheme %q; this build routes with %q", dir, man.Scheme, hashScheme)
		}
	case legacy:
		if n > 1 {
			return nil, fmt.Errorf("shard: %s holds an unsharded store; refusing to open with %d shards (its documents would be unreachable)", dir, n)
		}
	default:
		if err := writeManifest(dir, manifest{Version: 1, Shards: n, Scheme: hashScheme}); err != nil {
			return nil, err
		}
	}

	r := &Router{dir: dir, n: n}
	r.ring = buildRing(n)
	base := opts.Store.Metrics
	for i := 0; i < n; i++ {
		sdir := dir
		if !legacy {
			sdir = filepath.Join(dir, shardDirName(i))
		}
		so := opts.Store
		if n > 1 {
			// Each shard records under store.*|shard=i so saturation or
			// fail-stop of one WAL is visible per shard, not averaged away.
			so.Metrics = base.Labeled("shard", strconv.Itoa(i))
		}
		st, err := store.Open(sdir, so)
		if err != nil {
			for _, prev := range r.stores {
				prev.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		r.stores = append(r.stores, st)
	}
	return r, nil
}

func shardDirName(i int) string { return fmt.Sprintf("shard-%02d", i) }

// legacyLayout reports whether dir holds a pre-sharding store rooted
// at the top level (its WAL lives at dir/wal.log).
func legacyLayout(dir string) (bool, error) {
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return false, nil
	}
	_, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err == nil {
		return true, nil
	}
	if os.IsNotExist(err) {
		return false, nil
	}
	return false, fmt.Errorf("shard: probe legacy layout: %w", err)
}

// readManifest loads and strictly validates the layout manifest. Only
// a missing file means "no manifest"; anything else that is not a
// complete, well-formed layout — truncated JSON, an empty file, a
// half-written rename survivor, unknown versions, nonsense shard
// counts — refuses to open. Guessing a layout here would route
// documents to the wrong WAL, which is silent data loss; refusing is
// the only honest answer.
func readManifest(dir string) (manifest, bool, error) {
	var man manifest
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return man, false, nil
	}
	if err != nil {
		return man, false, fmt.Errorf("shard: read manifest: %w", err)
	}
	if err := json.Unmarshal(b, &man); err != nil {
		return man, false, fmt.Errorf("shard: %s is corrupt or half-written (%v); refusing to guess a layout", manifestName, err)
	}
	if man.Version != 1 {
		return man, false, fmt.Errorf("shard: %s has version %d; this build reads version 1", manifestName, man.Version)
	}
	if man.Shards <= 0 {
		return man, false, fmt.Errorf("shard: %s is corrupt or half-written (shard count %d); refusing to guess a layout", manifestName, man.Shards)
	}
	if man.Scheme == "" {
		return man, false, fmt.Errorf("shard: %s is corrupt or half-written (no hash scheme); refusing to guess a layout", manifestName)
	}
	return man, true, nil
}

// writeManifest publishes the layout durably (temp + fsync + rename +
// dir fsync) so a crash while initializing can never leave a
// half-written manifest — or lose the rename — and a later open read a
// different layout.
func writeManifest(dir string, man manifest) error {
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encode manifest: %w", err)
	}
	return store.PublishFile(dir, manifestName, append(b, '\n'))
}

// buildRing constructs the consistent-hash ring: vnodesPerShard points
// per shard, sorted by hash with shard index as the deterministic
// tiebreak.
func buildRing(n int) []ringPoint {
	if n == 1 {
		return nil
	}
	ring := make([]ringPoint, 0, n*vnodesPerShard)
	for i := 0; i < n; i++ {
		for v := 0; v < vnodesPerShard; v++ {
			key := fmt.Sprintf("shard-%d/vnode-%d", i, v)
			ring = append(ring, ringPoint{hash: crc32.Checksum([]byte(key), castagnoli), shard: i})
		}
	}
	sort.Slice(ring, func(a, b int) bool {
		if ring[a].hash != ring[b].hash {
			return ring[a].hash < ring[b].hash
		}
		return ring[a].shard < ring[b].shard
	})
	return ring
}

// ShardFor returns the index of the shard owning doc: the first ring
// point at or past the document hash, wrapping to the ring start.
func (r *Router) ShardFor(doc string) int {
	if r.n == 1 {
		return 0
	}
	h := crc32.Checksum([]byte(doc), castagnoli)
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	if i == len(r.ring) {
		i = 0
	}
	return r.ring[i].shard
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.n }

// Store exposes one shard's store, for tests and diagnostics.
func (r *Router) Store(i int) *store.Store { return r.stores[i] }

// route resolves doc to its owning store and stamps the shard index
// on the request's span, so the schedule→ack path of every traced
// document operation names the WAL it ran on.
func (r *Router) route(ctx context.Context, doc string) *store.Store {
	idx := r.ShardFor(doc)
	span.FromContext(ctx).Set("shard", idx)
	return r.stores[idx]
}

// CreateCtx registers a new document on the shard owning id.
func (r *Router) CreateCtx(ctx context.Context, id, xml string) (store.Result, error) {
	return r.route(ctx, id).CreateCtx(ctx, id, xml)
}

// Get returns a stored document's info from the shard owning id.
func (r *Router) Get(id string) (store.Info, error) {
	return r.stores[r.ShardFor(id)].Get(id)
}

// DropCtx removes a document from the shard owning id.
func (r *Router) DropCtx(ctx context.Context, id string) (store.Result, error) {
	return r.route(ctx, id).DropCtx(ctx, id)
}

// SubmitCtx schedules one operation against the shard owning id.
func (r *Router) SubmitCtx(ctx context.Context, id string, op store.Op) (store.Result, error) {
	return r.route(ctx, id).SubmitCtx(ctx, id, op)
}

// SnapshotDoc snapshots the single shard owning id and returns that
// shard's snapshot LSN.
func (r *Router) SnapshotDoc(id string) (uint64, error) {
	return r.stores[r.ShardFor(id)].Snapshot()
}

// SnapshotAll snapshots every shard (fanning out concurrently) and
// returns the per-shard snapshot LSNs in shard order. Shards that
// fail keep their slot (LSN 0) and their errors are joined.
func (r *Router) SnapshotAll() ([]uint64, error) {
	lsns := make([]uint64, r.n)
	errs := make([]error, r.n)
	var wg sync.WaitGroup
	for i, st := range r.stores {
		wg.Add(1)
		go func(i int, st *store.Store) {
			defer wg.Done()
			lsn, err := st.Snapshot()
			lsns[i] = lsn
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i, st)
	}
	wg.Wait()
	return lsns, errors.Join(errs...)
}

// DocEntry is one document in a cross-shard listing.
type DocEntry struct {
	Doc    string `json:"doc"`
	LSN    uint64 `json:"lsn"`
	Digest string `json:"digest"`
	Shard  int    `json:"shard"`
}

// List gathers every stored document across all shards into one
// deterministic listing, sorted by document id. The fan-out writes
// into indexed slots (the DetectBatch gather pattern), so concurrent
// shards cannot reorder the merge. A fail-stopped shard contributes
// an error for its slot; healthy shards still list. Documents dropped
// between a shard's id listing and the info read are skipped — the
// listing is a snapshot per shard, not a global one.
func (r *Router) List() ([]DocEntry, error) {
	perShard := make([][]DocEntry, r.n)
	errs := make([]error, r.n)
	var wg sync.WaitGroup
	for i, st := range r.stores {
		wg.Add(1)
		go func(i int, st *store.Store) {
			defer wg.Done()
			ids := st.Docs()
			if ids == nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, store.ErrClosed)
				return
			}
			for _, id := range ids {
				info, err := st.Get(id)
				if err != nil {
					if errors.Is(err, store.ErrNotFound) {
						continue
					}
					errs[i] = fmt.Errorf("shard %d: %w", i, err)
					return
				}
				perShard[i] = append(perShard[i], DocEntry{Doc: info.Doc, LSN: info.LSN, Digest: info.Digest, Shard: i})
			}
		}(i, st)
	}
	wg.Wait()
	var all []DocEntry
	for _, entries := range perShard {
		all = append(all, entries...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Doc < all[b].Doc })
	return all, errors.Join(errs...)
}

// Docs lists every document id across all shards, sorted. A closed or
// fail-stopped shard contributes none.
func (r *Router) Docs() []string {
	var ids []string
	for _, st := range r.stores {
		ids = append(ids, st.Docs()...)
	}
	sort.Strings(ids)
	return ids
}

// LSNs returns each shard's current LSN, in shard order.
func (r *Router) LSNs() []uint64 {
	lsns := make([]uint64, r.n)
	for i, st := range r.stores {
		lsns[i] = st.LSN()
	}
	return lsns
}

// Close closes every shard, joining their errors.
func (r *Router) Close() error {
	errs := make([]error, r.n)
	for i, st := range r.stores {
		if err := st.Close(); err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return errors.Join(errs...)
}
