// Package server is the analysis daemon behind cmd/tbaad: a long-lived
// HTTP front over the tbaa package that accepts MiniM3 module uploads,
// compiles each source once (cached by content hash), lazily builds
// one Analyzer per requested (level, open-world) configuration, and
// serves may-alias queries to any number of concurrent clients.
//
// The server is production-shaped in the ways the ROADMAP's
// "millions of users" direction asks for:
//
//   - Bounded memory: at most MaxModules modules stay resident, evicted
//     least-recently-used; re-uploading an evicted hash recompiles.
//   - Load shedding: batches over MaxBatch pairs are rejected with 429
//     and requests beyond MaxInflight with 503 + Retry-After, so an
//     overloaded server answers cheaply instead of OOMing.
//   - Timeouts: every query request runs under RequestTimeout, enforced
//     mid-batch through tbaa.MayAliasBatch's context; expiry answers 504.
//   - Coherent re-upload: installing a hash that is already resident
//     atomically swaps in a fresh generation. Requests in flight keep
//     the generation they resolved, so a batch never mixes verdicts
//     from two generations.
//   - Observability: /metrics exposes the shared internal/metrics
//     vocabulary in Prometheus text format; /healthz answers liveness probes; every
//     module carries session counts reported in batch responses and in
//     the module listing. Server.count is the one place verdicts are
//     counted, so those counts and /metrics agree.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"tbaa"
	"tbaa/internal/fault"
	"tbaa/internal/metrics"
)

// Config bounds one server instance. The zero value is usable:
// Defaults fills every unset limit.
type Config struct {
	// MaxModules caps resident modules; the least recently used is
	// evicted to admit a new hash. 0 means the default.
	MaxModules int
	// MaxBatch caps the pair count of one mayalias-batch request;
	// larger batches are shed with 429. 0 means the default.
	MaxBatch int
	// MaxInflight caps concurrently served /v1 requests; excess load is
	// shed with 503. 0 means the default.
	MaxInflight int
	// MaxSourceBytes caps an upload's source size. 0 means the default.
	MaxSourceBytes int64
	// RequestTimeout bounds one query request, enforced mid-batch via
	// context. 0 means the default.
	RequestTimeout time.Duration
	// CacheDir enables the disk-backed artifact tier: analyzer builds
	// persist their snapshots there and a restarted daemon warm-starts
	// from them instead of re-analyzing. "" (the default) disables it.
	// Artifacts of an edited module are invalidated before the edit's
	// generation is published, so the tier can only serve snapshots that
	// match their module's content hash.
	CacheDir string
	// MemLimit is the memory watermark in bytes: when the live heap
	// exceeds it the server sheds uploads with 503 + Retry-After and
	// evicts least-recently-used modules until the heap drops to 80% of
	// the limit. 0 (the default) disables the watermark.
	MemLimit int64
	// MemCheckInterval is how often WatchMemory samples the heap against
	// MemLimit. 0 means the default.
	MemCheckInterval time.Duration
	// QuarantineAfter is how many recovered panics one (module, level,
	// open-world) configuration survives before being quarantined (422
	// until a force re-upload). 0 means the default.
	QuarantineAfter int
}

// The default limits: small enough to demonstrate eviction and
// shedding in tests, large enough for real sessions.
const (
	DefaultMaxModules       = 16
	DefaultMaxBatch         = 1 << 16
	DefaultMaxInflight      = 128
	DefaultMaxSourceBytes   = 16 << 20
	DefaultRequestTimeout   = 30 * time.Second
	DefaultMemCheckInterval = time.Second
	DefaultQuarantineAfter  = 3
)

// Defaults returns the configuration with every unset field filled.
func (c Config) Defaults() Config {
	if c.MaxModules <= 0 {
		c.MaxModules = DefaultMaxModules
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = DefaultMaxSourceBytes
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.MemCheckInterval <= 0 {
		c.MemCheckInterval = DefaultMemCheckInterval
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = DefaultQuarantineAfter
	}
	return c
}

// Server holds the resident-module cache and serves the v1 API. Create
// with New; the methods of one Server are safe for any number of
// concurrent requests.
type Server struct {
	cfg      Config
	reg      *metrics.Registry
	cache    *moduleCache
	inflight chan struct{}
	mux      *http.ServeMux

	// draining latches when graceful shutdown begins (BeginDrain):
	// /readyz turns unready so load balancers stop routing new work,
	// while in-flight requests run to completion under http.Server's
	// Shutdown. pressure latches while the heap is over the memory
	// watermark (see CheckMemory): uploads are shed, queries still serve.
	draining atomic.Bool
	pressure atomic.Bool

	// sampleHeap reports live heap bytes; tests substitute a fake to
	// drive the watermark deterministically.
	sampleHeap func() int64
}

// New returns a Server with the given limits (zero fields take
// defaults).
func New(cfg Config) *Server {
	cfg = cfg.Defaults()
	reg := metrics.New()
	s := &Server{
		cfg:        cfg,
		reg:        reg,
		cache:      newModuleCache(cfg.MaxModules, cfg.CacheDir, cfg.QuarantineAfter, reg),
		inflight:   make(chan struct{}, cfg.MaxInflight),
		sampleHeap: heapBytes,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/modules", s.limited(s.handleUpload))
	mux.HandleFunc("GET /v1/modules", s.handleModules)
	mux.HandleFunc("POST /v1/modules/{hash}/edit", s.limited(s.handleEdit))
	mux.HandleFunc("POST /v1/modules/{hash}/mayalias", s.limited(s.handleMayAlias))
	mux.HandleFunc("POST /v1/modules/{hash}/mayalias-batch", s.limited(s.handleBatch))
	mux.HandleFunc("POST /v1/modules/{hash}/countpairs", s.limited(s.handleCountPairs))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux = mux
	return s
}

// Handler returns the root handler, ready for http.Server. The mux is
// wrapped in the last-resort panic barrier: analyzer panics are already
// recovered per configuration (guardConfig), but a panic anywhere else
// in a handler must cost that one request a 500, never the daemon.
func (s *Server) Handler() http.Handler { return s.recovered(s.mux) }

// BeginDrain marks the server draining: /readyz answers 503 so load
// balancers route new work elsewhere while in-flight requests finish.
// cmd/tbaad calls it on SIGTERM/SIGINT before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// recovered converts a handler panic into a structured 500 and the
// tbaad_panics_total counter. If the handler already wrote a partial
// response the ResponseWriter is left as-is (the client sees a torn
// body, which its retry policy treats like any connection fault).
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.reg.Panics.Add(1)
				writeError(w, http.StatusInternalServerError,
					fmt.Sprintf("internal panic (request isolated): %v", p), nil)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// Metrics returns the server's counter registry (shared with the
// /metrics endpoint); tests and embedders read it directly.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// limited wraps a /v1 handler with the in-flight cap: when MaxInflight
// requests are already being served the request is shed immediately
// with 503 and a Retry-After hint, never queued.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			h(w, r)
		default:
			s.reg.ShedInflight.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "server at capacity", nil)
		}
	}
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	// Under memory pressure new state is the one thing the server cannot
	// afford: shed the upload cheaply and keep serving queries against
	// what is already resident.
	if s.pressure.Load() {
		s.reg.ShedMemory.Add(1)
		w.Header().Set("Retry-After", "2")
		writeError(w, http.StatusServiceUnavailable, "server over its memory watermark; retry after evictions", nil)
		return
	}
	var req UploadRequest
	if !decodeJSON(w, r, s.cfg.MaxSourceBytes, &req) {
		return
	}
	if req.File == "" {
		req.File = "module.m3"
	}
	hash := tbaa.ModuleHash(req.Source)
	// Fast path: the hash is already resident, so skip the compile
	// entirely — this is the cache the content hash exists for. Force
	// bypasses it to recompile and swap generations.
	if e := s.cache.lookup(hash); e != nil && !req.Force {
		s.reg.CacheHits.Add(1)
		writeJSON(w, http.StatusOK, UploadResponse{
			Hash:       hash,
			File:       e.gen.Load().file,
			Cached:     true,
			Generation: e.gen.Load().seq,
			Resident:   s.reg.Resident.Load(),
		})
		return
	}
	mod, err := tbaa.Compile(req.File, req.Source)
	if err != nil {
		writeCompileError(w, err)
		return
	}
	s.reg.CacheMisses.Add(1)
	// A concurrent upload of the same source may have installed the
	// hash while this one compiled; install then swaps generations,
	// which is harmless (same bytes, same verdicts).
	_, gen, swapped := s.cache.install(mod, req.File)
	writeJSON(w, http.StatusCreated, UploadResponse{
		Hash:       mod.Hash(),
		File:       req.File,
		Cached:     swapped,
		Generation: gen,
		Resident:   s.reg.Resident.Load(),
	})
}

// handleEdit is the "edit" upload mode: replace one procedure of a
// resident module by name and re-analyze incrementally, without
// recompiling the module. The observed latency (OpRebuildOneProc)
// covers checking the edit plus the incremental rebuild of every built
// analyzer configuration — the server-side cost a one-procedure edit
// actually pays, which the benchmark gates against from-scratch cost.
func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req EditRequest
	if !decodeJSON(w, r, s.cfg.MaxSourceBytes, &req) {
		return
	}
	fault.Sleep(fault.EditSlow)
	e := s.cache.lookup(r.PathValue("hash"))
	if e == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no module %q resident (upload it first)", r.PathValue("hash")), nil)
		return
	}
	gen, proc, reanalyzed, err := s.cache.edit(e, req.Source)
	if err != nil {
		// The module was evicted while the edit was in flight (or between
		// lookup and apply): same answer as an edit of an unknown hash.
		if errors.Is(err, errNotResident) {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no module %q resident (upload it first)", r.PathValue("hash")), nil)
			return
		}
		writeEditError(w, err)
		return
	}
	s.reg.Edits.Add(1)
	s.reg.Observe(metrics.OpRebuildOneProc, time.Since(start))
	writeJSON(w, http.StatusOK, EditResponse{
		Hash:       e.hash,
		Proc:       proc,
		Generation: gen,
		Reanalyzed: reanalyzed,
	})
}

func (s *Server) handleModules(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ModulesResponse{Modules: s.cache.list()})
}

// resolve turns the request's {hash} and level selection into the
// entry, its current generation, and the generation's analyzer. A nil
// analyzer return means resolve already answered the request.
//
// The analyzer build (and the fault-injection panic points that stand
// in for analyzer bugs) runs under guardConfig: a panic is recovered
// into a 500 counted against the configuration's quarantine ledger,
// and a quarantined configuration is refused up front with 422 —
// other configurations of the same module keep answering.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request, lv LevelRequest) (*entry, *generation, *tbaa.Analyzer) {
	e := s.cache.lookup(r.PathValue("hash"))
	if e == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no module %q resident (upload it first)", r.PathValue("hash")), nil)
		return nil, nil, nil
	}
	level := tbaa.SMFieldTypeRefs
	if lv.Level != "" {
		var err error
		if level, err = tbaa.ParseLevel(lv.Level); err != nil {
			writeError(w, http.StatusBadRequest, err.Error(), nil)
			return nil, nil, nil
		}
	}
	key := analyzerKey{level: level, open: lv.Open}
	if reason, ok := e.quar.blocked(key); ok {
		writeError(w, http.StatusUnprocessableEntity, reason, nil)
		return nil, nil, nil
	}
	// Load the generation pointer exactly once: everything below — the
	// lazily built analyzer and every verdict of the request — comes
	// from this one generation even if a re-upload swaps mid-request.
	g := e.gen.Load()
	var a *tbaa.Analyzer
	err := s.guardConfig(e, key, func() error {
		if fault.Hit(fault.BuildPanic) {
			panic("injected analyzer build panic (" + fault.BuildPanic + ")")
		}
		var err error
		a, err = g.analyzer(key)
		if err != nil {
			return err
		}
		if fault.Hit(fault.QueryPanic) {
			panic("injected analyzer query panic (" + fault.QueryPanic + ")")
		}
		return nil
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), nil)
		return nil, nil, nil
	}
	return e, g, a
}

func (s *Server) handleMayAlias(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req QueryRequest
	if !decodeJSON(w, r, s.cfg.MaxSourceBytes, &req) {
		return
	}
	e, g, a := s.resolve(w, r, req.LevelRequest)
	if a == nil {
		return
	}
	may, err := a.MayAlias(req.P, req.Q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	var aliased uint64
	if may {
		aliased = 1
	}
	s.count(e, 1, aliased, 0)
	s.reg.Observe(metrics.OpMayAlias, time.Since(start))
	writeJSON(w, http.StatusOK, QueryResponse{MayAlias: may, Generation: g.seq})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req BatchRequest
	if !decodeJSON(w, r, s.cfg.MaxSourceBytes, &req) {
		return
	}
	if len(req.Pairs) > s.cfg.MaxBatch {
		s.reg.ShedBatch.Add(1)
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("batch of %d pairs exceeds the %d-pair limit; split it", len(req.Pairs), s.cfg.MaxBatch), nil)
		return
	}
	e, g, a := s.resolve(w, r, req.LevelRequest)
	if a == nil {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	pairs := make([]tbaa.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		pairs[i] = tbaa.Pair{P: p.P, Q: p.Q}
	}
	verdicts := a.MayAliasBatch(ctx, pairs)
	resp := BatchResponse{
		Verdicts:   make([]VerdictJSON, len(verdicts)),
		Generation: g.seq,
	}
	var timedOut bool
	var answered, aliased uint64
	for i, v := range verdicts {
		vj := VerdictJSON{P: v.Pair.P, Q: v.Pair.Q, MayAlias: v.MayAlias}
		if v.Err != nil {
			vj.Error = v.Err.Error()
			vj.MayAlias = false
			if errors.Is(v.Err, context.DeadlineExceeded) {
				timedOut = true
			}
		} else {
			answered++
			if v.MayAlias {
				aliased++
			}
		}
		resp.Verdicts[i] = vj
	}
	if timedOut {
		// The verdicts answered before the deadline count; the batch,
		// which is not answered, does not.
		s.count(e, answered, aliased, 0)
		writeError(w, http.StatusGatewayTimeout,
			fmt.Sprintf("batch exceeded the %s request timeout", s.cfg.RequestTimeout), nil)
		return
	}
	s.count(e, answered, aliased, 1)
	resp.Stats = SessionStats{
		Queries: e.queries.Load(),
		Aliased: e.aliased.Load(),
		Batches: e.batches.Load(),
	}
	s.reg.Observe(metrics.OpMayAliasBatch, time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// count adds one request's answered verdicts, the may-alias ones
// among them, and its answered batches to the module's session counts
// and to the registry. It is the one place the server counts verdicts,
// so batch stats, /v1/modules and /metrics report the same totals.
func (s *Server) count(e *entry, queries, aliased, batches uint64) {
	e.queries.Add(queries)
	e.aliased.Add(aliased)
	e.batches.Add(batches)
	s.reg.Queries.Add(queries)
	s.reg.Aliased.Add(aliased)
	s.reg.Batches.Add(batches)
}

func (s *Server) handleCountPairs(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req LevelRequest
	if !decodeJSON(w, r, s.cfg.MaxSourceBytes, &req) {
		return
	}
	_, g, a := s.resolve(w, r, req)
	if a == nil {
		return
	}
	pc := a.CountPairs()
	s.reg.Observe(metrics.OpCountPairs, time.Since(start))
	writeJSON(w, http.StatusOK, CountPairsResponse{
		References: pc.References,
		Local:      pc.Local,
		Global:     pc.Global,
		Generation: g.seq,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz is the readiness probe: unlike /healthz (liveness — the
// process is up), /readyz answers 503 while the server should not
// receive new work: during graceful drain, and while the heap is over
// the memory watermark.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
	case s.pressure.Load():
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "memory pressure\n")
	default:
		io.WriteString(w, "ready\n")
	}
}

// ---------------------------------------------------------------------------
// JSON plumbing

// decodeJSON parses the request body into v, answering 400 itself on
// failure. The body is capped at limit bytes (the source-size bound is
// the largest legitimate body).
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request body: "+err.Error(), nil)
		return false
	}
	return true
}

// writeEditError maps a rejected edit to 422 with diagnostics.
func writeEditError(w http.ResponseWriter, err error) {
	var diags []string
	var pe *tbaa.ParseError
	var ce *tbaa.CheckError
	switch {
	case errors.As(err, &pe):
		for _, d := range pe.Diagnostics {
			diags = append(diags, d.String())
		}
	case errors.As(err, &ce):
		for _, d := range ce.Diagnostics {
			diags = append(diags, d.String())
		}
	}
	writeError(w, http.StatusUnprocessableEntity, "edit rejected: "+err.Error(), diags)
}

// writeCompileError maps frontend failures to 422 with diagnostics.
func writeCompileError(w http.ResponseWriter, err error) {
	var diags []string
	var pe *tbaa.ParseError
	var ce *tbaa.CheckError
	switch {
	case errors.As(err, &pe):
		for _, d := range pe.Diagnostics {
			diags = append(diags, d.String())
		}
	case errors.As(err, &ce):
		for _, d := range ce.Diagnostics {
			diags = append(diags, d.String())
		}
	}
	writeError(w, http.StatusUnprocessableEntity, "module does not compile: "+err.Error(), diags)
}

func writeError(w http.ResponseWriter, status int, msg string, diags []string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Diagnostics: diags})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
