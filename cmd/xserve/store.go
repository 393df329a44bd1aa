package main

// The durable document store surface: when xserve is started with
// -store-dir, clients can register named XML documents and submit
// READ/INSERT/DELETE operations that are admitted through the conflict
// detector (optimistic commute-or-conflict scheduling, per document)
// and made durable through the store's WAL before they are
// acknowledged.
//
//	POST   /v1/docs                {"doc": "orders", "xml": "<a/>"}
//	GET    /v1/docs/{id}
//	DELETE /v1/docs/{id}
//	POST   /v1/docs/{id}/update    {"op": "insert", "pattern": "/a",
//	                                "x": "<x/>", "semantics": "node",
//	                                "base_lsn": 7}
//	POST   /v1/docs/{id}/snapshot
//
// A rejected operation answers 409 with the uniform envelope plus a
// machine-readable "conflict" object naming the committed update it
// collided with and exactly which conflict semantics fired.

import (
	"errors"
	"fmt"
	"net/http"

	"xmlconflict/internal/shard"
	"xmlconflict/internal/store"
	"xmlconflict/internal/telemetry/span"
	"xmlconflict/internal/xmltree"
)

// docCreateRequest is the POST /v1/docs body.
type docCreateRequest struct {
	Doc string `json:"doc"`
	XML string `json:"xml"`
}

// docOpRequest is the POST /v1/docs/{id}/update body. BaseLSN opts into
// the optimistic admission check: the operation commits only if it
// commutes with (or, for reads under the chosen semantics, is untouched
// by) every update committed after that LSN.
type docOpRequest struct {
	Op        string `json:"op"`
	Pattern   string `json:"pattern"`
	X         string `json:"x,omitempty"`
	Semantics string `json:"semantics,omitempty"`
	BaseLSN   uint64 `json:"base_lsn,omitempty"`
}

// docResponse is the reply for document operations. Digest is the AHU
// digest of the document after the operation — the same digest crash
// recovery re-verifies, so a client can confirm durability end to end.
type docResponse struct {
	Doc    string   `json:"doc"`
	LSN    uint64   `json:"lsn"`
	Digest string   `json:"digest,omitempty"`
	Points int      `json:"points,omitempty"`
	Nodes  []string `json:"nodes,omitempty"`
	XML    string   `json:"xml,omitempty"`
	Size   int      `json:"size,omitempty"`
	// TraceID names this request's span tree: while the flight recorder
	// holds it, GET /v1/trace/{id} replays the admission, WAL-append,
	// and fsync timeline behind this acknowledgment.
	TraceID string `json:"trace_id,omitempty"`
}

// conflictInfo is the machine-readable rejection attached to a 409
// envelope: which committed update the operation collided with and
// which conflict notions fired.
type conflictInfo struct {
	Doc       string   `json:"doc"`
	Op        string   `json:"op"`
	Semantics string   `json:"semantics"`
	Fired     []string `json:"fired"`
	BaseLSN   uint64   `json:"base_lsn"`
	WithLSN   uint64   `json:"with_lsn"`
	WithKind  string   `json:"with_kind"`
	Detail    string   `json:"detail"`
}

// storeRoutes mounts the document-store API (only called when a store
// is configured). The handlers share the containment wrapper with the
// detection API: a panic on the commit path fail-stops the store but
// answers this request with a 500 envelope and leaves the daemon
// serving.
func (s *server) storeRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/docs", s.traced("docs.create", s.contained(s.handleDocCreate)))
	mux.HandleFunc("GET /v1/docs", s.traced("docs.list", s.contained(s.handleDocList)))
	mux.HandleFunc("GET /v1/docs/{id}", s.traced("docs.get", s.contained(s.handleDocGet)))
	mux.HandleFunc("DELETE /v1/docs/{id}", s.traced("docs.drop", s.contained(s.handleDocDrop)))
	mux.HandleFunc("POST /v1/docs/{id}/update", s.traced("docs.update", s.contained(s.handleDocUpdate)))
	mux.HandleFunc("POST /v1/docs/{id}/snapshot", s.traced("docs.snapshot", s.contained(s.handleDocSnapshot)))
}

// storeErr maps a store error onto the uniform envelope: 404 for
// missing documents, 409 for create collisions and admission rejections
// (with the conflict object attached), 400 for malformed inputs and
// parse-limit violations, 503 for a closed (fail-stopped) store. Every
// envelope carries the request's trace ID: the flight recorder always
// keeps conflicting and errored traces, so the client can fetch the
// full span tree — fired semantics, BaseLSN window, WAL timings — from
// /v1/trace/{id} after the fact.
func (s *server) storeErr(w http.ResponseWriter, r *http.Request, err error) {
	s.metrics.Add("serve.errors", 1)
	resp := errorResponse{Error: err.Error(), TraceID: traceID(r)}
	status := http.StatusBadRequest
	resp.Reason = "bad-request"
	var ce *store.ConflictError
	var le *xmltree.LimitError
	switch {
	case errors.As(err, &ce):
		status, resp.Reason = http.StatusConflict, "conflict"
		resp.Conflict = &conflictInfo{
			Doc: ce.Doc, Op: ce.Op, Semantics: ce.Sem.String(), Fired: ce.Fired,
			BaseLSN: ce.BaseLSN, WithLSN: ce.WithLSN, WithKind: ce.WithKind, Detail: ce.Detail,
		}
	case errors.Is(err, store.ErrNotFound):
		status, resp.Reason = http.StatusNotFound, "not-found"
	case errors.Is(err, store.ErrExists):
		status, resp.Reason = http.StatusConflict, "exists"
	case errors.Is(err, store.ErrStaleBase):
		status, resp.Reason = http.StatusConflict, "stale-base"
	case errors.Is(err, store.ErrFutureBase):
		status, resp.Reason = http.StatusConflict, "future-base"
	case errors.Is(err, store.ErrClosed):
		status, resp.Reason = http.StatusServiceUnavailable, "store-closed"
	case errors.Is(err, store.ErrUnsafeLabel):
		resp.Reason = "unsafe-label"
	case errors.As(err, &le):
		resp.Reason = "limit"
	}
	writeJSON(w, status, resp)
}

// tenantSlot stamps the request's tenant on its span and claims the
// tenant's inflight allowance. A tenant past its allowance gets the
// 429 quota envelope (Retry-After from the docs route's latency) and
// ok=false; the caller must defer the release when ok.
func (s *server) tenantSlot(w http.ResponseWriter, r *http.Request, doc string) (release func(), ok bool) {
	tenant := shard.TenantOf(r.Header.Get("X-Tenant"), doc)
	span.FromContext(r.Context()).Set("tenant", tenant)
	release, err := s.tenants.Acquire(tenant)
	if err != nil {
		s.metrics.Add("serve.tenant_rejected", 1)
		w.Header().Set("Retry-After", s.retryAfter("docs"))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error:   fmt.Sprintf("tenant %q has its full inflight allowance of %d in use", tenant, s.tenants.Limit()),
			Reason:  "tenant-quota",
			TraceID: traceID(r),
		})
		return nil, false
	}
	return release, true
}

func (s *server) handleDocCreate(w http.ResponseWriter, r *http.Request) {
	s.metrics.Add("serve.requests", 1)
	var req docCreateRequest
	if !s.decode(w, r, &req) {
		return
	}
	release, ok := s.tenantSlot(w, r, req.Doc)
	if !ok {
		return
	}
	defer release()
	res, err := s.createDoc(r.Context(), req.Doc, req.XML)
	if err != nil {
		if s.replRedirect(w, r, err, req.Doc, nil, req) || s.replStoreErr(w, r, err) {
			return
		}
		s.storeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, docResponse{Doc: res.Doc, LSN: res.LSN, Digest: res.Digest, TraceID: traceID(r)})
}

func (s *server) handleDocGet(w http.ResponseWriter, r *http.Request) {
	s.metrics.Add("serve.requests", 1)
	if s.replReadGate(w, r) {
		return
	}
	if s.replMinLSNGate(w, r, r.PathValue("id")) {
		return
	}
	info, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		s.storeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, docResponse{
		Doc: info.Doc, LSN: info.LSN, Digest: info.Digest, XML: info.XML, Size: info.Size,
		TraceID: traceID(r),
	})
}

func (s *server) handleDocDrop(w http.ResponseWriter, r *http.Request) {
	s.metrics.Add("serve.requests", 1)
	release, ok := s.tenantSlot(w, r, r.PathValue("id"))
	if !ok {
		return
	}
	defer release()
	res, err := s.dropDoc(r.Context(), r.PathValue("id"))
	if err != nil {
		if s.replRedirect(w, r, err, r.PathValue("id"), nil, nil) || s.replStoreErr(w, r, err) {
			return
		}
		s.storeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, docResponse{Doc: res.Doc, LSN: res.LSN, TraceID: traceID(r)})
}

func (s *server) handleDocUpdate(w http.ResponseWriter, r *http.Request) {
	s.metrics.Add("serve.requests", 1)
	var req docOpRequest
	if !s.decode(w, r, &req) {
		return
	}
	sem, err := parseSemantics(req.Semantics)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad-request", err.Error())
		return
	}
	tenantRelease, ok := s.tenantSlot(w, r, r.PathValue("id"))
	if !ok {
		return
	}
	defer tenantRelease()
	// Admission runs the commute/fired-semantics checks — detection
	// work — so it rides the same bounded worker pool as /v1/detect.
	ctx, release, err := s.acquireSlot(r.Context(), "docs")
	if err != nil {
		s.rejectSlot(w, err, "docs")
		return
	}
	defer release()
	op := store.Op{
		Kind:    req.Op,
		Pattern: req.Pattern,
		X:       req.X,
		Sem:     sem,
		BaseLSN: req.BaseLSN,
	}
	res, err := s.submitDoc(ctx, r.PathValue("id"), op)
	if err != nil {
		if s.replRedirect(w, r, err, r.PathValue("id"), &op, req) || s.replStoreErr(w, r, err) {
			return
		}
		s.storeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, docResponse{
		Doc: res.Doc, LSN: res.LSN, Digest: res.Digest, Points: res.Points, Nodes: res.Nodes,
		TraceID: traceID(r),
	})
}

func (s *server) handleDocSnapshot(w http.ResponseWriter, r *http.Request) {
	s.metrics.Add("serve.requests", 1)
	// The path names a document for symmetry with the other routes, but
	// snapshots are whole-space: verify the document exists, then
	// snapshot every shard. The reply LSN is the owning shard's — the
	// one that covers the named document.
	id := r.PathValue("id")
	if _, err := s.store.Get(id); err != nil {
		s.storeErr(w, r, err)
		return
	}
	lsns, err := s.store.SnapshotAll()
	if err != nil {
		s.storeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, docResponse{Doc: id, LSN: lsns[s.store.ShardFor(id)]})
}

// docListResponse is the GET /v1/docs reply: every stored document
// across all shards, gathered deterministically (sorted by id), each
// naming the shard that owns it.
type docListResponse struct {
	Docs   []shard.DocEntry `json:"docs"`
	Shards int              `json:"shards"`
}

func (s *server) handleDocList(w http.ResponseWriter, r *http.Request) {
	s.metrics.Add("serve.requests", 1)
	if s.replReadGate(w, r) {
		return
	}
	entries, err := s.store.List()
	if err != nil {
		s.storeErr(w, r, err)
		return
	}
	if entries == nil {
		entries = []shard.DocEntry{}
	}
	writeJSON(w, http.StatusOK, docListResponse{Docs: entries, Shards: s.store.Shards()})
}

// parseFsyncPolicy maps the -store-fsync flag value.
func parseFsyncPolicy(name string) (store.FsyncPolicy, error) {
	switch name {
	case "", "always":
		return store.FsyncAlways, nil
	case "never":
		return store.FsyncNever, nil
	}
	return 0, fmt.Errorf("unknown fsync policy %q (want always or never)", name)
}
