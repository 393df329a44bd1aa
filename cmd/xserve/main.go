// Command xserve is the long-running conflict-detection daemon: the
// engine of "Conflicting XML Updates" (EDBT 2006) behind an HTTP API,
// with the full live observability surface of internal/telemetry.
//
// Usage:
//
//	xserve [-listen :8344] [-pool N] [-queue-timeout 2s] [-max-body 1048576]
//	       [-read-header-timeout 5s] [-read-timeout 30s]
//	       [-write-timeout 2m] [-idle-timeout 2m]
//
// API:
//
//	POST /v1/detect
//	    {"read": "//A[B]", "insert": "/*/B", "x": "<C/>",
//	     "semantics": "node", "max_nodes": 8, "max_candidates": 100000,
//	     "schema": "...", "tree": "<a>...</a>"}
//	    -> {"conflict": true, "method": "search", "complete": true,
//	        "witness": "<a>...</a>", "candidates": 712, "elapsed_us": 3100}
//
//	POST /v1/detect/batch
//	    {"pairs": [{"read": ..., "insert"/"delete": ...}, ...]}
//	    -> {"results": [...one detect reply per pair, in order...],
//	        "elapsed_us": 4100}
//
//	POST /v1/analyze
//	    {"program": "x = doc <a/>\ny = read $x//b\n...",
//	     "semantics": "node", "max_nodes": 6, "max_candidates": 200000}
//	    -> {"statements": [...], "dependences": [{"i":1,"j":2,"reason":...}],
//	        "hoistable_reads": [...], "redundant_reads": [[0,3]],
//	        "schedule": [[0],[1,2],...], "elapsed_us": 9000}
//
// With -store-dir the daemon also serves a durable document store
// (see store.go in this package): clients register named XML trees
// under POST /v1/docs, read and update them through the conflict
// detector's optimistic admission (POST /v1/docs/{id}/update), and the
// store write-ahead-logs every commit (fsync policy -store-fsync),
// snapshots periodically (-store-snapshot-every), and recovers to
// exactly the acknowledged prefix after a crash. store.* counters
// (appends, fsync timings, recoveries, torn tails, conflict
// rejections) ride the same /metrics surface.
//
// Exactly one of "insert"/"delete" must be given per detect pair. With
// "tree" the request is a witness check on that document (Lemma 1,
// polynomial); with "schema" the search is restricted to schema-valid
// witnesses. Batch pairs accept only the plain form (no schema/tree).
// All other fields bound the witness search exactly like xconflict's
// flags.
//
// Failure model: a search that exhausts its budget ("deadline_ms",
// "max_candidates") degrades — the reply is still 200, with "complete":
// false and a machine-readable "reason" ("deadline", "candidate-cap",
// ...) — it never errors. Every non-2xx reply is the uniform JSON
// envelope {"error": ..., "reason": ...}. A panic anywhere in a request
// is contained at the handler (and, for batches, at the worker) so only
// the offending request or pair fails; batch replies carry a per-item
// "error" field and the daemon keeps serving.
//
// Plain detections, batch pairs, and analyze cross-checks all share one
// process-lifetime verdict cache, so repeated patterns — the common case
// for clients deciding program fragments — are decided once.
//
// Observability (same mux):
//
//	GET /metrics        Prometheus text exposition: one latency summary
//	                    (p50/p90/p99, trace exemplar) per span name
//	                    below a request's root — serve_detect_seconds,
//	                    queue_wait_seconds, store_admit_seconds, ... —
//	                    request/error/conflict counters, detector-cache
//	                    hits/misses, and every engine counter
//	GET /debug/vars     expvar JSON snapshot
//	GET /debug/pprof/*  live CPU/heap/trace profiling
//	GET /healthz        liveness
//	GET /readyz         readiness (503 while draining)
//
// Detection work runs on a bounded worker pool (-pool, default
// GOMAXPROCS): excess requests wait up to -queue-timeout for a slot and
// are then rejected with 503 + Retry-After (derived from the observed
// detection latency p90), keeping tail latency bounded under overload
// instead of collapsing. A client that disconnects mid-request cancels
// its detection — the search polls the request context — so abandoned
// work frees its pool slot promptly. SIGINT/SIGTERM drain gracefully:
// readiness flips first, in-flight detections finish.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"xmlconflict"
	"xmlconflict/internal/faultinject"
	"xmlconflict/internal/replica"
	"xmlconflict/internal/shard"
	"xmlconflict/internal/store"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/telemetry/obshttp"
	"xmlconflict/internal/telemetry/span"
)

// detectRequest is the POST /v1/detect body, stable for tooling.
type detectRequest struct {
	Read          string `json:"read"`
	Insert        string `json:"insert,omitempty"`
	X             string `json:"x,omitempty"`
	Delete        string `json:"delete,omitempty"`
	Semantics     string `json:"semantics,omitempty"`
	MaxNodes      int    `json:"max_nodes,omitempty"`
	MaxCandidates int    `json:"max_candidates,omitempty"`
	// DeadlineMs bounds the search in wall-clock time: when it lapses
	// the reply is still 200, with "complete": false and "reason":
	// "deadline" — degraded, never an error.
	DeadlineMs int    `json:"deadline_ms,omitempty"`
	Schema     string `json:"schema,omitempty"`
	Tree       string `json:"tree,omitempty"`
}

// detectResponse is the POST /v1/detect reply, stable for tooling.
// Reason is the machine-readable cause when "complete" is false
// ("candidate-cap", "deadline", ...). In batch replies a pair that
// failed on its own carries Error (and Reason "panic" for a contained
// crash) while its batch-mates answer normally.
type detectResponse struct {
	Conflict   bool     `json:"conflict"`
	Method     string   `json:"method"`
	Complete   bool     `json:"complete"`
	Semantics  string   `json:"semantics"`
	Reason     string   `json:"reason,omitempty"`
	Detail     string   `json:"detail,omitempty"`
	Edge       int      `json:"edge,omitempty"`
	Word       []string `json:"word,omitempty"`
	Witness    string   `json:"witness,omitempty"`
	Candidates int      `json:"candidates,omitempty"`
	Error      string   `json:"error,omitempty"`
	ElapsedUs  int64    `json:"elapsed_us"`
}

// batchRequest is the POST /v1/detect/batch body: plain detect pairs
// only (no schema/tree per pair). DeadlineMs bounds the whole
// batch's wall-clock time; pairs that run out answer "complete": false
// with "reason": "deadline".
type batchRequest struct {
	Pairs      []detectRequest `json:"pairs"`
	DeadlineMs int             `json:"deadline_ms,omitempty"`
}

// batchResponse replies with one result per pair, in request order.
type batchResponse struct {
	Results   []detectResponse `json:"results"`
	ElapsedUs int64            `json:"elapsed_us"`
}

// analyzeRequest is the POST /v1/analyze body: a pidgin program and the
// analysis knobs.
type analyzeRequest struct {
	Program       string `json:"program"`
	Semantics     string `json:"semantics,omitempty"`
	MaxNodes      int    `json:"max_nodes,omitempty"`
	MaxCandidates int    `json:"max_candidates,omitempty"`
	DeadlineMs    int    `json:"deadline_ms,omitempty"`
}

// analyzeDependence is one edge of the dependence relation.
type analyzeDependence struct {
	I      int    `json:"i"`
	J      int    `json:"j"`
	Reason string `json:"reason"`
}

// analyzeResponse is the dependence matrix plus the optimization
// opportunities the paper motivates.
type analyzeResponse struct {
	Statements     []string            `json:"statements"`
	Dependences    []analyzeDependence `json:"dependences"`
	HoistableReads []int               `json:"hoistable_reads,omitempty"`
	RedundantReads [][2]int            `json:"redundant_reads,omitempty"`
	Schedule       [][]int             `json:"schedule"`
	ElapsedUs      int64               `json:"elapsed_us"`
}

// errorResponse is the uniform error envelope every non-2xx API reply
// uses: a human-readable message plus a machine-readable reason
// ("bad-request", "saturated", "panic", "internal", "draining",
// "method-not-allowed", "unprocessable").
type errorResponse struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
	// Conflict is attached to 409 rejections from the document store:
	// the committed update the operation collided with and which
	// conflict semantics fired.
	Conflict *conflictInfo `json:"conflict,omitempty"`
	// TraceID names the request's span tree for conflict forensics:
	// rejected and errored traces are always kept by the flight
	// recorder, replayable via GET /v1/trace/{id}.
	TraceID string `json:"trace_id,omitempty"`
}

// writeErr writes the uniform JSON error envelope.
func writeErr(w http.ResponseWriter, status int, reason, msg string) {
	writeJSON(w, status, errorResponse{Error: msg, Reason: reason})
}

// reasonFor maps an HTTP error status to the envelope's default reason.
func reasonFor(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad-request"
	case http.StatusMethodNotAllowed:
		return "method-not-allowed"
	case http.StatusServiceUnavailable:
		return "saturated"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return "unprocessable"
	}
}

// server carries the daemon's shared state: the metrics registry every
// request records into, the bounded worker pool, the process-lifetime
// verdict cache, and the readiness bit.
type server struct {
	metrics      *telemetry.Metrics
	cache        *xmlconflict.DetectorCache
	pool         chan struct{}
	queueTimeout time.Duration
	maxBody      int64
	ready        atomic.Bool
	// recorder holds completed request traces: a ring of recent ones
	// plus always-kept captures of slow/errored/degraded/conflicting
	// requests, served at /debug/requests and /v1/trace/{id}.
	recorder *span.FlightRecorder
	// retry memoizes the Retry-After derivation per route for retryTTL:
	// under saturation every shed request would otherwise walk a latency
	// histogram. Scoped per route because the routes saturate
	// independently — a fsync-bound docs shard must not inherit the
	// detect route's p90 (or its cold 1s floor) and vice versa.
	retryTTL time.Duration
	retry    map[string]*retryMemo
	// store routes /v1/docs operations to the shard owning each
	// document; nil unless -store-dir was given (the routes are not
	// mounted without it). With -shards 1 it wraps a single store.
	store *shard.Router
	// node is the replication layer over the store; nil unless
	// -repl-node was given. When set, store is node.Router() and
	// /v1/docs writes commit through the node (see repl.go).
	node             *replica.Node
	replHC           *http.Client
	replProxyTimeout time.Duration
	// replAdmin mounts the cluster-lifecycle admin endpoints (join,
	// leave, runtime fault arming); off unless -repl-admin was given.
	replAdmin bool
	// replMinLSNWait bounds how long a read carrying X-Min-LSN waits for
	// the local shard to reach the requested position before 503.
	replMinLSNWait time.Duration
	// tenants bounds per-tenant inflight document operations (429 past
	// the allowance) and records per-tenant traffic.
	tenants *shard.TenantLimiter
	// identity is the server's build/config identity served on /healthz:
	// what a load harness records so a report names exactly the
	// configuration that produced its numbers. Written before serving
	// starts, read-only afterwards.
	identity map[string]string
}

func newServer(pool int, queueTimeout time.Duration, maxBody int64) *server {
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	if queueTimeout <= 0 {
		queueTimeout = 2 * time.Second
	}
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	s := &server{
		metrics:      telemetry.New(),
		cache:        xmlconflict.NewDetectorCache(0),
		pool:         make(chan struct{}, pool),
		queueTimeout: queueTimeout,
		maxBody:      maxBody,
		recorder:     span.NewFlightRecorder(span.RecorderOptions{}),
		retryTTL:     time.Second,
		retry:        map[string]*retryMemo{"detect": {}, "docs": {}},

		replHC:           &http.Client{Timeout: 5 * time.Second},
		replProxyTimeout: 5 * time.Second,
		replMinLSNWait:   250 * time.Millisecond,
	}
	s.tenants = shard.NewTenantLimiter(0, s.metrics)
	s.cache.Instrument(s.metrics)
	s.ready.Store(true)
	s.identity = map[string]string{
		"service":       "xserve",
		"go":            runtime.Version(),
		"pool":          strconv.Itoa(cap(s.pool)),
		"queue_timeout": s.queueTimeout.String(),
		"max_body":      strconv.FormatInt(s.maxBody, 10),
		"cache_cap":     strconv.Itoa(s.cache.Cap()),
		"store":         "off",
	}
	return s
}

// routes mounts the API and the observability surface on one mux. Every
// API handler runs inside the containment wrapper: a panic fails its own
// request with a 500 envelope while the daemon keeps serving.
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/detect", s.traced("detect", s.contained(s.handleDetect)))
	mux.HandleFunc("/v1/detect/batch", s.traced("batch", s.contained(s.handleBatch)))
	mux.HandleFunc("/v1/analyze", s.traced("analyze", s.contained(s.handleAnalyze)))
	// Trace inspection is itself untraced: reading the recorder must not
	// churn the rings it reads.
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTraceGet)
	if s.store != nil {
		s.storeRoutes(mux)
	}
	if s.node != nil {
		// The replication protocol rides the same mux: peers call
		// /v1/repl/append etc. on the public listener.
		mux.Handle("/v1/repl/", s.node.Handler())
		if s.replAdmin {
			// Specific patterns outrank the /v1/repl/ subtree, so the
			// admin surface coexists with the protocol handler.
			mux.HandleFunc("POST /v1/repl/join", s.traced("repl.join", s.contained(s.handleReplJoin)))
			mux.HandleFunc("POST /v1/repl/leave", s.traced("repl.leave", s.contained(s.handleReplLeave)))
			mux.HandleFunc("POST /v1/repl/faults", s.traced("repl.faults", s.contained(s.handleReplFaults)))
		}
	}
	obshttp.Mount(mux, obshttp.Options{
		Metrics: s.metrics, Ready: s.ready.Load, RetryAfter: func() string { return s.retryAfter("detect") }, Recorder: s.recorder,
		Identity: func() map[string]string { return s.identity },
	})
	return mux
}

// contained is the handler-boundary half of the fault-containment layer:
// it recovers a panicking handler into a 500 JSON envelope and the
// serve.panics counter, so one poisoned request cannot take the process
// (net/http would otherwise only save the connection, and a panic past a
// pool-slot acquire could leak the slot forever). http.ErrAbortHandler
// is re-raised: it is the stdlib's own "abandon this response" signal.
func (s *server) contained(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				s.metrics.Add("serve.panics", 1)
				s.metrics.Add("serve.errors", 1)
				writeErr(w, http.StatusInternalServerError, "panic", fmt.Sprintf("internal error: %v", rec))
			}
		}()
		h(w, r)
	}
}

// httpTimeouts bounds every phase of a connection's life so one slow or
// stalled client (slowloris, dead TCP peer) cannot pin a connection —
// and with it server memory — indefinitely.
type httpTimeouts struct {
	readHeader, read, write, idle time.Duration
}

func defaultTimeouts() httpTimeouts {
	return httpTimeouts{
		readHeader: 5 * time.Second,
		read:       30 * time.Second,
		write:      2 * time.Minute,
		idle:       2 * time.Minute,
	}
}

// server builds the http.Server with the timeouts applied.
func (t httpTimeouts) server(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: t.readHeader,
		ReadTimeout:       t.read,
		WriteTimeout:      t.write,
		IdleTimeout:       t.idle,
	}
}

var errQueueTimeout = errors.New("worker pool saturated")

// acquireSlot blocks until a pool slot frees, the request's context
// dies, or the queue timeout lapses. Once the slot is held it opens the
// "serve.<route>" span ("detect" or "docs"), which covers the whole
// hold, reply included, and returns a context carrying it: the handler
// runs its work under that context, and release ends the span and frees
// the slot. The folded span is the route's service latency, the
// distribution retryAfter reads. The inflight gauge tracks both edges —
// set on acquire AND on release — so it drains back to zero when the
// server goes idle instead of sticking at the high-water mark.
func (s *server) acquireSlot(ctx context.Context, route string) (context.Context, func(), error) {
	// The queue wait is its own span: under saturation it is where a
	// request's latency actually goes.
	_, qsp := span.Start(ctx, "queue.wait")
	slotTimer := time.NewTimer(s.queueTimeout)
	defer slotTimer.Stop()
	select {
	case s.pool <- struct{}{}:
		qsp.End()
		s.metrics.Gauge("serve.inflight").Set(int64(len(s.pool)))
		ctx, sp := span.Start(ctx, "serve."+route)
		return ctx, func() {
			sp.End()
			<-s.pool
			s.metrics.Gauge("serve.inflight").Set(int64(len(s.pool)))
		}, nil
	case <-ctx.Done():
		qsp.Fail(ctx.Err())
		qsp.End()
		return nil, nil, ctx.Err()
	case <-slotTimer.C:
		qsp.Fail(errQueueTimeout)
		qsp.End()
		return nil, nil, errQueueTimeout
	}
}

// rejectSlot reports a failed slot acquisition: silently for a client
// that already went away, with 503 + Retry-After for saturation. route
// selects which latency distribution the Retry-After hint derives from.
func (s *server) rejectSlot(w http.ResponseWriter, err error, route string) {
	if !errors.Is(err, errQueueTimeout) {
		s.metrics.Add("serve.canceled", 1)
		return
	}
	s.metrics.Add("serve.rejected", 1)
	w.Header().Set("Retry-After", s.retryAfter(route))
	writeErr(w, http.StatusServiceUnavailable, "saturated", "worker pool saturated")
}

// retryMemo caches one route's derived Retry-After value until a
// deadline, so overload — exactly when every shed request would
// recompute it — does not walk the histogram per rejection.
type retryMemo struct {
	val   atomic.Value // string
	until atomic.Int64 // unix nanos
}

// retryAfter tells a shed client how long to back off: the p90 of the
// named route's observed service latency — the serve.detect or
// serve.docs slot spans folded from recorded traces, the time a pool
// slot realistically takes to free up — rounded up to whole seconds and
// clamped to [1, 60]. A route with no observations yet answers the
// 1-second floor. The derivation is memoized per route for retryTTL; an
// unknown route falls back to the detect distribution.
func (s *server) retryAfter(route string) string {
	if _, ok := s.retry[route]; !ok {
		route = "detect"
	}
	memo := s.retry[route]
	now := time.Now().UnixNano()
	if now < memo.until.Load() {
		if v, ok := memo.val.Load().(string); ok {
			return v
		}
	}
	p90 := s.metrics.Timer("serve." + route).Quantile(0.9)
	secs := int64(math.Ceil(p90.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	v := strconv.FormatInt(secs, 10)
	// Value before deadline: a reader that sees the fresh deadline must
	// find the fresh value.
	memo.val.Store(v)
	memo.until.Store(now + int64(s.retryTTL))
	return v
}

// decode parses a JSON request body within the size limit.
func (s *server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		s.metrics.Add("serve.bad_requests", 1)
		writeErr(w, http.StatusBadRequest, "bad-request", "bad request body: "+err.Error())
		return false
	}
	return true
}

// postOnly gates a handler to POST.
func postOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeErr(w, http.StatusMethodNotAllowed, "method-not-allowed", "POST only")
		return false
	}
	return true
}

// finish writes the reply unless the client is already gone — then the
// work is counted canceled and nothing is written (the connection is
// dead anyway).
func (s *server) finish(w http.ResponseWriter, r *http.Request, status int, body any, err error) {
	if r.Context().Err() != nil {
		s.metrics.Add("serve.canceled", 1)
		return
	}
	if err != nil {
		s.metrics.Add("serve.errors", 1)
		reason := reasonFor(status)
		var ie *xmlconflict.InternalError
		if errors.As(err, &ie) {
			// A panic contained inside the engine (batch worker, cache
			// leader) surfaces as a typed InternalError: it is this
			// server's defect, not the client's.
			status, reason = http.StatusInternalServerError, "panic"
		}
		writeErr(w, status, reason, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *server) handleDetect(w http.ResponseWriter, r *http.Request) {
	if !postOnly(w, r) {
		return
	}
	s.metrics.Add("serve.requests", 1)
	var req detectRequest
	if !s.decode(w, r, &req) {
		return
	}
	if ferr := faultinject.Fire("serve.detect"); ferr != nil {
		s.finish(w, r, http.StatusInternalServerError, nil, ferr)
		return
	}

	// Acquire a worker-pool slot; bounded waiting keeps overload
	// failures fast and explicit instead of queueing unboundedly.
	ctx, release, err := s.acquireSlot(r.Context(), "detect")
	if err != nil {
		s.rejectSlot(w, err, "detect")
		return
	}
	defer release()

	resp, status, err := s.detect(ctx, req)
	if err == nil {
		flagDegraded(r, resp.Complete)
		if resp.Conflict {
			s.metrics.Add("serve.conflicts", 1)
		}
	}
	s.finish(w, r, status, resp, err)
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !postOnly(w, r) {
		return
	}
	s.metrics.Add("serve.requests", 1)
	var req batchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Pairs) == 0 {
		writeErr(w, http.StatusBadRequest, "bad-request", `"pairs" must be non-empty`)
		return
	}
	if ferr := faultinject.Fire("serve.batch"); ferr != nil {
		s.finish(w, r, http.StatusInternalServerError, nil, ferr)
		return
	}
	items := make([]xmlconflict.BatchItem, len(req.Pairs))
	var opts xmlconflict.SearchOptions
	deadlineMs := req.DeadlineMs
	for i, p := range req.Pairs {
		if p.Schema != "" || p.Tree != "" {
			writeErr(w, http.StatusBadRequest, "bad-request",
				fmt.Sprintf("pair %d: schema/tree are not supported in batches", i))
			return
		}
		item, bounds, err := s.parsePair(p)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad-request", fmt.Sprintf("pair %d: %v", i, err))
			return
		}
		items[i] = item
		// One bound set governs the whole batch: the loosest requested,
		// so no pair searches shallower than it asked for.
		if bounds.MaxNodes > opts.MaxNodes {
			opts.MaxNodes = bounds.MaxNodes
		}
		if bounds.MaxCandidates > opts.MaxCandidates {
			opts.MaxCandidates = bounds.MaxCandidates
		}
		if p.DeadlineMs > deadlineMs {
			deadlineMs = p.DeadlineMs
		}
	}

	// One slot covers the whole batch; the fan-out below is what uses
	// the pool's parallelism.
	ctx, release, err := s.acquireSlot(r.Context(), "detect")
	if err != nil {
		s.rejectSlot(w, err, "detect")
		return
	}
	defer release()

	opts = opts.WithStats(s.metrics).WithContext(ctx)
	if deadlineMs > 0 {
		opts = opts.WithTimeout(time.Duration(deadlineMs) * time.Millisecond)
	}
	begin := time.Now()
	results, err := xmlconflict.DetectBatchResults(items, opts, cap(s.pool), s.cache)
	if err != nil {
		// Batch-wide failure (the request context died); per-pair
		// failures land in their own slots below instead.
		s.finish(w, r, http.StatusUnprocessableEntity, nil, err)
		return
	}
	resp := batchResponse{Results: make([]detectResponse, len(results)), ElapsedUs: time.Since(begin).Microseconds()}
	for i, res := range results {
		if res.Err != nil {
			// One poisoned pair fails alone: its slot carries the error
			// while its batch-mates answer normally.
			s.metrics.Add("serve.errors", 1)
			reason := "unprocessable"
			var ie *xmlconflict.InternalError
			if errors.As(res.Err, &ie) {
				reason = "panic"
			}
			resp.Results[i] = detectResponse{
				Semantics: items[i].Sem.String(),
				Reason:    reason,
				Error:     res.Err.Error(),
			}
			continue
		}
		resp.Results[i] = verdictResponse(res.Verdict, items[i].Sem)
		flagDegraded(r, res.Verdict.Complete)
		if res.Verdict.Conflict {
			s.metrics.Add("serve.conflicts", 1)
		}
	}
	s.finish(w, r, 0, resp, nil)
}

func (s *server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if !postOnly(w, r) {
		return
	}
	s.metrics.Add("serve.requests", 1)
	var req analyzeRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Program == "" {
		writeErr(w, http.StatusBadRequest, "bad-request", `need "program"`)
		return
	}
	if ferr := faultinject.Fire("serve.analyze"); ferr != nil {
		s.finish(w, r, http.StatusInternalServerError, nil, ferr)
		return
	}
	sem, err := parseSemantics(req.Semantics)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad-request", err.Error())
		return
	}
	prog, err := xmlconflict.ParseProgram(req.Program)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad-request", "program: "+err.Error())
		return
	}

	ctx, release, err := s.acquireSlot(r.Context(), "detect")
	if err != nil {
		s.rejectSlot(w, err, "detect")
		return
	}
	defer release()

	search := xmlconflict.SearchOptions{
		MaxNodes:      req.MaxNodes,
		MaxCandidates: req.MaxCandidates,
	}.WithStats(s.metrics).WithContext(ctx)
	if req.DeadlineMs > 0 {
		search = search.WithTimeout(time.Duration(req.DeadlineMs) * time.Millisecond)
	}
	aopts := xmlconflict.AnalyzeOptions{
		Sem:     sem,
		Search:  search,
		Workers: cap(s.pool),
		Cache:   s.cache,
	}
	begin := time.Now()
	a, err := xmlconflict.AnalyzeProgram(prog, aopts)
	if err != nil {
		s.finish(w, r, http.StatusUnprocessableEntity, nil, err)
		return
	}
	resp := analyzeResponse{
		Statements: make([]string, len(prog.Stmts)),
		Schedule:   a.ParallelSchedule().Stages,
		ElapsedUs:  time.Since(begin).Microseconds(),
	}
	for i, st := range prog.Stmts {
		resp.Statements[i] = st.Src
	}
	for i := range a.Dep {
		for j := i + 1; j < len(a.Dep); j++ {
			if a.Dep[i][j] {
				resp.Dependences = append(resp.Dependences, analyzeDependence{I: i, J: j, Reason: a.Reason[i][j]})
			}
		}
	}
	resp.HoistableReads = a.HoistableReads()
	resp.RedundantReads = a.RedundantReads()
	s.finish(w, r, 0, resp, nil)
}

// parseSemantics maps the wire name to a Semantics.
func parseSemantics(name string) (xmlconflict.Semantics, error) {
	switch name {
	case "", "node":
		return xmlconflict.NodeSemantics, nil
	case "tree":
		return xmlconflict.TreeSemantics, nil
	case "value":
		return xmlconflict.ValueSemantics, nil
	}
	return 0, fmt.Errorf("unknown semantics %q", name)
}

// parsePair parses the read/update/semantics core of a detect request,
// plus its requested search bounds.
func (s *server) parsePair(req detectRequest) (xmlconflict.BatchItem, xmlconflict.SearchOptions, error) {
	var none xmlconflict.BatchItem
	if req.Read == "" || (req.Insert == "") == (req.Delete == "") {
		return none, xmlconflict.SearchOptions{},
			errors.New(`need "read" and exactly one of "insert"/"delete"`)
	}
	sem, err := parseSemantics(req.Semantics)
	if err != nil {
		return none, xmlconflict.SearchOptions{}, err
	}
	rp, err := xmlconflict.ParseXPath(req.Read)
	if err != nil {
		return none, xmlconflict.SearchOptions{}, fmt.Errorf("read: %w", err)
	}
	var upd xmlconflict.Update
	if req.Insert != "" {
		ip, err := xmlconflict.ParseXPath(req.Insert)
		if err != nil {
			return none, xmlconflict.SearchOptions{}, fmt.Errorf("insert: %w", err)
		}
		xs := req.X
		if xs == "" {
			xs = "<new/>"
		}
		x, err := xmlconflict.ParseXMLString(xs)
		if err != nil {
			return none, xmlconflict.SearchOptions{}, fmt.Errorf("x: %w", err)
		}
		upd = xmlconflict.Insert{P: ip, X: x}
	} else {
		dp, err := xmlconflict.ParseXPath(req.Delete)
		if err != nil {
			return none, xmlconflict.SearchOptions{}, fmt.Errorf("delete: %w", err)
		}
		upd = xmlconflict.Delete{P: dp}
	}
	opts := xmlconflict.SearchOptions{MaxNodes: req.MaxNodes, MaxCandidates: req.MaxCandidates}
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 8
	}
	if opts.MaxCandidates <= 0 {
		opts.MaxCandidates = 100_000
	}
	return xmlconflict.BatchItem{R: xmlconflict.Read{P: rp}, U: upd, Sem: sem}, opts, nil
}

// verdictResponse renders a verdict on the wire.
func verdictResponse(v xmlconflict.Verdict, sem xmlconflict.Semantics) detectResponse {
	resp := detectResponse{
		Conflict:   v.Conflict,
		Method:     v.Method,
		Complete:   v.Complete,
		Semantics:  sem.String(),
		Reason:     v.Reason,
		Detail:     v.Detail,
		Edge:       v.Edge,
		Word:       v.Word,
		Candidates: v.Candidates,
	}
	if v.Witness != nil {
		resp.Witness = v.Witness.XML()
	}
	return resp
}

// detect parses and runs one request against the facade, canceled by
// ctx. Returned errors carry the HTTP status to report (400 for request
// defects).
func (s *server) detect(ctx context.Context, req detectRequest) (detectResponse, int, error) {
	item, opts, err := s.parsePair(req)
	if err != nil {
		return detectResponse{}, http.StatusBadRequest, err
	}
	read, upd, sem := item.R, item.U, item.Sem

	begin := time.Now()

	// With a concrete document the request is a Lemma 1 witness check on
	// that tree rather than an existential search over all trees.
	if req.Tree != "" {
		doc, err := xmlconflict.ParseXMLString(req.Tree)
		if err != nil {
			return detectResponse{}, http.StatusBadRequest, fmt.Errorf("tree: %w", err)
		}
		ok, err := xmlconflict.IsConflictWitness(sem, read, upd, doc)
		if err != nil {
			return detectResponse{}, http.StatusUnprocessableEntity, err
		}
		resp := detectResponse{
			Conflict:  ok,
			Method:    "witness-check",
			Complete:  true,
			Semantics: sem.String(),
			Detail:    "checked the supplied document only",
			ElapsedUs: time.Since(begin).Microseconds(),
		}
		if ok {
			resp.Witness = doc.XML()
		}
		return resp, 0, nil
	}

	opts = opts.WithStats(s.metrics).WithContext(ctx)
	if req.DeadlineMs > 0 {
		// A lapsed deadline degrades the search, it does not fail it:
		// the verdict comes back 200 with complete:false and
		// reason:"deadline".
		opts = opts.WithTimeout(time.Duration(req.DeadlineMs) * time.Millisecond)
	}

	var v xmlconflict.Verdict
	if req.Schema != "" {
		sch, err := xmlconflict.ParseSchema(req.Schema)
		if err != nil {
			return detectResponse{}, http.StatusBadRequest, fmt.Errorf("schema: %w", err)
		}
		sch.Instrument(s.metrics)
		v, err = xmlconflict.DetectUnderSchema(read, upd, sem, sch, opts)
		if err != nil {
			return detectResponse{}, http.StatusUnprocessableEntity, err
		}
	} else {
		// The plain form rides the process-lifetime verdict cache:
		// repeated pairs are decided once for the server's life.
		v, err = s.cache.Detect(read, upd, sem, opts)
		if err != nil {
			return detectResponse{}, http.StatusUnprocessableEntity, err
		}
	}
	resp := verdictResponse(v, sem)
	resp.ElapsedUs = time.Since(begin).Microseconds()
	return resp, 0, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("xserve", flag.ContinueOnError)
	listen := fs.String("listen", ":8344", "address to serve on")
	pool := fs.Int("pool", 0, "worker pool size (0 = GOMAXPROCS)")
	queueTimeout := fs.Duration("queue-timeout", 2*time.Second, "how long a request waits for a pool slot before 503")
	maxBody := fs.Int64("max-body", 1<<20, "request body size limit in bytes")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "graceful drain budget on SIGINT/SIGTERM")
	t := defaultTimeouts()
	fs.DurationVar(&t.readHeader, "read-header-timeout", t.readHeader, "time limit for reading a request's headers")
	fs.DurationVar(&t.read, "read-timeout", t.read, "time limit for reading a whole request")
	fs.DurationVar(&t.write, "write-timeout", t.write, "time limit for writing a response (covers the detection)")
	fs.DurationVar(&t.idle, "idle-timeout", t.idle, "how long a keep-alive connection may sit idle")
	faults := fs.String("faults", "", "fault-injection spec site=kind[:delay][@after][xN][;...] for chaos testing")
	traceDir := fs.String("trace-dir", "", "dump captured request traces (slow/error/degraded/conflict) as JSON into this directory")
	traceSlow := fs.Duration("trace-slow", 0, "latency above which a request trace is always kept (0 = recorder default)")
	storeDir := fs.String("store-dir", "", "durable document store directory (empty = /v1/docs disabled)")
	storeFsync := fs.String("store-fsync", "always", "store fsync policy: always or never")
	storeSnapshotEvery := fs.Int("store-snapshot-every", 1024, "auto-snapshot (and rotate the WAL) after this many records; 0 = manual only")
	shards := fs.Int("shards", 1, "partition the document space across this many store shards (each with its own WAL, snapshots, and recovery)")
	tenantInflight := fs.Int("tenant-inflight", 0, "max in-flight /v1/docs operations per tenant before 429 (0 = unlimited)")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file once serving (harness hook: lets xload/CI find a :0 port)")
	replNode := fs.String("repl-node", "", "this node's id in a replicated cluster (requires -store-dir and -repl-peers)")
	replPeers := fs.String("repl-peers", "", "full cluster membership as id=url,id=url (first peer is the initial primary)")
	replAck := fs.String("repl-ack", "quorum", "replication level a write waits for: local, quorum, or all")
	replHeartbeat := fs.Duration("repl-heartbeat", 100*time.Millisecond, "primary heartbeat cadence / backup detection tick")
	replFailoverAfter := fs.Duration("repl-failover-after", 0, "primary silence a backup tolerates before standing for promotion (0 = 10 heartbeats)")
	replStaleness := fs.Duration("repl-staleness", 5*time.Second, "staleness bound past which a backup refuses reads")
	replTentative := fs.Bool("repl-tentative", false, "let a disconnected backup queue optimistic writes for detector-arbitrated merge")
	replLearner := fs.Bool("repl-learner", false, "boot this node as a non-voting learner joining an existing cluster (pair with POST /v1/repl/join on the primary)")
	replAdmin := fs.Bool("repl-admin", false, "mount cluster admin endpoints: POST /v1/repl/join, /v1/repl/leave, /v1/repl/faults")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *faults != "" {
		if err := faultinject.ArmSpec(*faults); err != nil {
			fmt.Fprintf(os.Stderr, "xserve: -faults: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "xserve: fault injection armed: %s\n", *faults)
	}

	s := newServer(*pool, *queueTimeout, *maxBody)
	if *traceDir != "" || *traceSlow > 0 {
		s.recorder = span.NewFlightRecorder(span.RecorderOptions{Dir: *traceDir, SlowThreshold: *traceSlow})
		if *traceDir != "" {
			fmt.Fprintf(os.Stderr, "xserve: capturing request traces into %s\n", *traceDir)
		}
	}
	if *replNode != "" && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "xserve: -repl-node requires -store-dir")
		return 2
	}
	if *storeDir != "" {
		policy, err := parseFsyncPolicy(*storeFsync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xserve: -store-fsync: %v\n", err)
			return 2
		}
		shardOpts := shard.Options{
			Shards: *shards,
			Store: store.Options{
				Fsync:         policy,
				SnapshotEvery: *storeSnapshotEvery,
				Metrics:       s.metrics, // store.* counters ride /metrics, labeled per shard
			},
		}
		if *replNode != "" {
			peers, err := parsePeers(*replPeers)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xserve: -repl-peers: %v\n", err)
				return 2
			}
			ack, err := replica.ParseAckLevel(*replAck)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xserve: -repl-ack: %v\n", err)
				return 2
			}
			node, err := replica.Open(*storeDir, shardOpts, replica.Options{
				NodeID:         *replNode,
				Peers:          peers,
				Ack:            ack,
				HeartbeatEvery: *replHeartbeat,
				FailoverAfter:  *replFailoverAfter,
				StalenessBound: *replStaleness,
				Tentative:      *replTentative,
				Learner:        *replLearner,
				Metrics:        s.metrics,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "xserve: -repl-node: %v\n", err)
				return 2
			}
			defer node.Close()
			s.node = node
			s.store = node.Router()
			s.replAdmin = *replAdmin
			s.identity["repl_node"] = *replNode
			s.identity["repl_peers"] = strconv.Itoa(len(peers))
			s.identity["repl_ack"] = ack.String()
			s.identity["repl_tentative"] = strconv.FormatBool(*replTentative)
			fmt.Fprintf(os.Stderr, "xserve: replica %s of %d peers (%s, ack %s, epoch %d)\n",
				*replNode, len(peers), node.Role(), ack, node.Epoch())
		} else {
			rt, err := shard.Open(*storeDir, shardOpts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xserve: -store-dir: %v\n", err)
				return 2
			}
			defer rt.Close()
			s.store = rt
		}
		s.tenants = shard.NewTenantLimiter(*tenantInflight, s.metrics)
		s.identity["store"] = "on"
		s.identity["store_fsync"] = policy.String()
		s.identity["store_snapshot_every"] = strconv.Itoa(*storeSnapshotEvery)
		s.identity["store_shards"] = strconv.Itoa(s.store.Shards())
		s.identity["tenant_inflight"] = strconv.Itoa(*tenantInflight)
		fmt.Fprintf(os.Stderr, "xserve: document store at %s (%d shards, fsync %s, %d docs)\n",
			*storeDir, s.store.Shards(), policy, len(s.store.Docs()))
	}
	if !s.metrics.Publish("xmlconflict") {
		fmt.Fprintln(os.Stderr, "xserve: expvar name xmlconflict already taken; /debug/vars serves the earlier registry")
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xserve: %v\n", err)
		return 2
	}
	if *addrFile != "" {
		// The hook a harness polls: once this file exists, the port is
		// bound and the address inside it is connectable.
		if werr := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "xserve: -addr-file: %v\n", werr)
			return 2
		}
	}
	srv := t.server(s.routes())

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "xserve: serving on http://%s (pool %d)\n", ln.Addr(), cap(s.pool))

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "xserve: %v\n", err)
			return 2
		}
		return 0
	case <-ctx.Done():
	}

	// Drain: stop advertising readiness, then let in-flight detections
	// finish inside the shutdown budget.
	s.ready.Store(false)
	fmt.Fprintln(os.Stderr, "xserve: draining")
	sctx, scancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintf(os.Stderr, "xserve: forced shutdown: %v\n", err)
		srv.Close()
		return 1
	}
	fmt.Fprintln(os.Stderr, "xserve: drained")
	return 0
}
