// Package server is the privbayesd serving subsystem: an HTTP service
// that hosts a registry of fitted PrivBayes models and serves synthesis
// and marginal inference from them, plus a curator mode that fits new
// models under a persistent per-dataset privacy-budget ledger
// (internal/accountant).
//
// Serving never touches sensitive data: a registered model is the ε-DP
// release itself (see privbayes.SaveModel), so synthesis and inference
// requests cost no additional privacy budget. Only POST /fit — which
// reads raw data — is metered.
//
// Every compute request — synthesize, query, marginal, fit — is
// admitted by one step on the shared worker budget (admit), which sheds
// with 503 + Retry-After under overload. POST /models/{id}/marginal is
// /query's marginal case: it answers through the same function,
// admission included.
//
// Endpoints:
//
//	GET  /healthz                  liveness + worker budget
//	GET  /models                   list registered models
//	POST /models[?id=...]          upload a SaveModel artifact
//	GET  /models/{id}              model metadata (network, ε, schema)
//	GET  /models/{id}/synthesize   stream synthetic rows (also POST)
//	POST /models/{id}/marginal     exact marginal: /query's v1 wire form
//	POST /models/{id}/query        exact query: marginal/conditional/prob/count
//	POST /fit                      curator mode: CSV + schema + ε -> model
//	GET  /budget                   per-dataset privacy-budget ledger
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"mime"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"privbayes"
	"privbayes/internal/accountant"
	"privbayes/internal/core"
	"privbayes/internal/curator"
	"privbayes/internal/dataset"
	"privbayes/internal/faultfs"
	"privbayes/internal/infer"
	"privbayes/internal/parallel"
	"privbayes/internal/telemetry"
)

// Defaults for Config zero values.
const (
	// DefaultMaxSynthesisRows caps n per synthesize request.
	DefaultMaxSynthesisRows = 10_000_000
	// DefaultMaxUploadBytes caps model-artifact and fit-CSV uploads.
	DefaultMaxUploadBytes = 256 << 20
)

// Config configures a Server. The zero value serves models from memory
// only, with curator mode disabled.
type Config struct {
	// ModelsDir, when set, is scanned for *.json model artifacts at
	// startup, and receives every model uploaded or fitted later.
	ModelsDir string
	// Ledger meters curator-mode fits per dataset id. Nil disables
	// POST /fit entirely.
	Ledger *accountant.Ledger
	// MaxWorkers is the server-wide worker budget shared by all
	// requests; <= 0 selects GOMAXPROCS.
	MaxWorkers int
	// MaxRequestParallelism caps the workers any single request may
	// claim from the budget; <= 0 means up to the whole budget.
	MaxRequestParallelism int
	// MaxSynthesisRows caps n per synthesize request; <= 0 selects
	// DefaultMaxSynthesisRows.
	MaxSynthesisRows int
	// MaxUploadBytes caps request bodies (model uploads, fit CSVs);
	// <= 0 selects DefaultMaxUploadBytes.
	MaxUploadBytes int64
	// MaxQueueDepth caps how many requests may wait for worker slots
	// before new arrivals are shed with 503 + Retry-After instead of
	// queueing unboundedly; <= 0 selects DefaultMaxQueueDepth.
	MaxQueueDepth int
	// MaxFitsPerDataset caps concurrent POST /fit requests per dataset
	// id; excess fits get 429 + Retry-After. <= 0 selects
	// DefaultMaxFitsPerDataset.
	MaxFitsPerDataset int
	// CuratorDir enables the continuous curator: one crash-safe row log
	// per curated dataset lives here, and the /datasets endpoints come
	// up. Empty disables curation.
	CuratorDir string
	// RefitEpsilon is the ε charged per background refit of a curated
	// dataset; <= 0 disables refits (ingest-only curation).
	RefitEpsilon float64
	// RefitRows triggers a background refit once that many rows have
	// accumulated beyond the last fitted model; <= 0 disables the row
	// trigger.
	RefitRows int64
	// RefitStaleness triggers a background refit once unfitted rows are
	// older than this; <= 0 disables the staleness trigger.
	RefitStaleness time.Duration
	// CuratorPollInterval is the staleness check cadence; <= 0 selects
	// the curator default.
	CuratorPollInterval time.Duration
	// FitChunkRows bounds the rows staged for decoding at a time while
	// a fit reads its rows (POST /fit reads its spooled upload, curator
	// cold refits the row log) into bit-packed columns; <= 0 selects
	// the scanner default.
	FitChunkRows int
	// FS is the filesystem seam for model-artifact persistence; nil
	// selects the real filesystem. Tests inject write/sync/rename
	// faults and crashes here (internal/faultfs).
	FS faultfs.FS
	// Logger receives structured logs: one line per request (with its
	// request ID) plus operational notes. Nil discards them.
	Logger *slog.Logger
	// Telemetry, when set, receives every server metric family and is
	// served at GET /metrics and GET /debug/vars. Nil disables metrics;
	// the handlers still serve (empty exposition) and request IDs still
	// flow.
	Telemetry *telemetry.Registry
}

// Server implements http.Handler over a model registry, a worker
// budget, and an optional privacy-budget ledger.
type Server struct {
	cfg        Config
	registry   *Registry
	ledger     *accountant.Ledger
	ledgerPath string // absolute path of the ledger file, "" if in-memory
	workers    *workerBudget
	fs         faultfs.FS
	fits       *inflightGauge // per-dataset concurrent-fit cap
	fitKeys    *inflightGauge // Idempotency-Key single flight (cap 1)
	maxRows    int
	maxBytes   int64
	maxPar     int
	mux        *http.ServeMux
	curator    *curator.Curator // nil when CuratorDir is unset
	seq        atomic.Int64     // generated-id counter

	metrics    *serverMetrics // never nil; no-op without a registry
	log        *slog.Logger   // never nil; NopLogger without a Logger
	loadErrors int            // model artifacts skipped at startup
}

// New builds a Server, loading any models already in cfg.ModelsDir.
// Corrupt artifacts in the directory are logged and skipped so one bad
// file cannot keep the daemon down.
func New(cfg Config) (*Server, error) {
	queueDepth := cfg.MaxQueueDepth
	if queueDepth <= 0 {
		queueDepth = DefaultMaxQueueDepth
	}
	fitCap := cfg.MaxFitsPerDataset
	if fitCap <= 0 {
		fitCap = DefaultMaxFitsPerDataset
	}
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(),
		ledger:   cfg.Ledger,
		workers:  newWorkerBudget(parallel.Workers(cfg.MaxWorkers), queueDepth),
		fs:       faultfs.Or(cfg.FS),
		fits:     newInflightGauge(fitCap),
		fitKeys:  newInflightGauge(1),
		maxRows:  cfg.MaxSynthesisRows,
		maxBytes: cfg.MaxUploadBytes,
		maxPar:   cfg.MaxRequestParallelism,
	}
	if s.maxRows <= 0 {
		s.maxRows = DefaultMaxSynthesisRows
	}
	if s.maxBytes <= 0 {
		s.maxBytes = DefaultMaxUploadBytes
	}
	if s.maxPar <= 0 || s.maxPar > s.workers.total {
		s.maxPar = s.workers.total
	}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = telemetry.NopLogger()
	}
	s.metrics = newServerMetrics(cfg.Telemetry, s)
	if cfg.Ledger != nil {
		cfg.Ledger.Instrument(accountant.NewMetrics(cfg.Telemetry))
	}
	if cfg.Ledger != nil && cfg.Ledger.Path() != "" {
		abs, err := filepath.Abs(cfg.Ledger.Path())
		if err != nil {
			return nil, fmt.Errorf("server: ledger path: %w", err)
		}
		s.ledgerPath = abs
	}
	if cfg.ModelsDir != "" {
		if err := os.MkdirAll(cfg.ModelsDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: models dir: %w", err)
		}
		// A crash between CreateTemp and Rename in publish leaves a
		// *.tmp-* file behind; sweep them so they cannot accumulate
		// across crash/restart cycles.
		if stale, _ := filepath.Glob(filepath.Join(cfg.ModelsDir, "*.tmp-*")); stale != nil {
			for _, name := range stale {
				if err := s.fs.Remove(name); err == nil {
					s.logf("removed stale temp artifact %s", name)
				}
			}
		}
		n, errs := s.registry.LoadDir(cfg.ModelsDir, s.ledgerPath)
		s.loadErrors = len(errs)
		for _, err := range errs {
			s.logf("skipping model artifact: %v", err)
		}
		s.logf("loaded %d model(s) from %s", n, cfg.ModelsDir)
	}

	if cfg.CuratorDir != "" {
		cur, err := curator.New(curator.Config{
			Dir:               cfg.CuratorDir,
			Ledger:            cfg.Ledger,
			RefitEpsilon:      cfg.RefitEpsilon,
			RefitRows:         cfg.RefitRows,
			RefitMaxStaleness: cfg.RefitStaleness,
			PollInterval:      cfg.CuratorPollInterval,
			ChunkRows:         cfg.FitChunkRows,
			Acquire: func(ctx context.Context, want int) (int, func(), error) {
				return s.workers.acquire(ctx, s.requestWorkers(want), false)
			},
			Publish: func(id string, m *privbayes.Model, epsilon float64) error {
				// A republish after a crash-recovered charge may find the
				// model already registered; that is success.
				if err := s.publish(id, "curator", m, epsilon); !errors.Is(err, ErrExists) {
					return err
				}
				return nil
			},
			Lookup: func(id string) (*privbayes.Model, bool) {
				m, _, err := s.registry.Get(id)
				return m, err == nil
			},
			FS:      cfg.FS,
			Logf:    s.logf,
			Metrics: curator.NewMetrics(cfg.Telemetry),
		})
		if err != nil {
			return nil, fmt.Errorf("server: curator: %w", err)
		}
		s.curator = cur
	}

	// Every route goes through the telemetry middleware under a fixed
	// route name, so metric label cardinality is bounded by this table
	// no matter what paths clients send.
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(route, h))
	}
	handle("GET /healthz", "healthz", s.handleHealth)
	handle("GET /readyz", "readyz", s.handleReady)
	handle("GET /models", "models_list", s.handleList)
	handle("POST /models", "models_upload", s.handleUpload)
	handle("GET /models/{id}", "model_get", s.handleModel)
	handle("GET /models/{id}/synthesize", "synthesize", s.handleSynthesize)
	handle("POST /models/{id}/synthesize", "synthesize", s.handleSynthesize)
	handle("POST /models/{id}/marginal", "marginal", s.handleMarginal)
	handle("POST /models/{id}/query", "query", s.handleQuery)
	handle("POST /fit", "fit", s.handleFit)
	handle("GET /budget", "budget", s.handleBudget)
	handle("GET /datasets", "datasets_list", s.handleDatasetList)
	handle("POST /datasets/{id}", "dataset_create", s.handleDatasetCreate)
	handle("GET /datasets/{id}", "dataset_get", s.handleDatasetStatus)
	handle("POST /datasets/{id}/rows", "dataset_rows", s.handleDatasetRows)
	// Scrape endpoints are served outside the middleware: a scrape must
	// not inflate the request counters it reports.
	mux.Handle("GET /metrics", cfg.Telemetry.Handler())
	mux.Handle("GET /debug/vars", telemetry.ExpvarHandler(cfg.Telemetry))
	s.mux = mux
	return s, nil
}

// Registry exposes the model registry (read-mostly; used by privbayesd
// for startup reporting and by tests).
func (s *Server) Registry() *Registry { return s.registry }

// Close stops background curation (waiting for in-flight refits) and
// closes the curated row logs. Serving handlers are unaffected; callers
// stop the HTTP listener separately.
func (s *Server) Close() error {
	if s.curator != nil {
		return s.curator.Close()
	}
	return nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) logf(format string, args ...any) {
	s.log.Info(fmt.Sprintf(format, args...))
}

// freshID generates "<prefix>-N", skipping ids already registered —
// the counter restarts at zero each process start, but models persisted
// by a previous run reload from ModelsDir with their old generated ids.
// The prefix is truncated so the result always satisfies ValidID's
// 128-char cap even for maximal dataset ids.
func (s *Server) freshID(prefix string) string {
	if len(prefix) > 100 {
		prefix = prefix[:100]
	}
	for {
		id := fmt.Sprintf("%s-%d", prefix, s.seq.Add(1))
		if _, _, err := s.registry.Get(id); err != nil {
			return id
		}
	}
}

// requestWorkers resolves a client's parallelism ask against the
// per-request cap: 0 means "the server default" (the full cap), any
// positive ask is clamped to it. The worker budget still decides what
// is actually granted.
func (s *Server) requestWorkers(asked int) int {
	if asked <= 0 || asked > s.maxPar {
		return s.maxPar
	}
	return asked
}

// errorBody is every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// decodeBody is every handler's JSON request-body decoder: it decodes
// at most 1 MiB into v, answering 400 when the body is malformed or
// larger. ok=false means that answer was written.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (ok bool) {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "decode request body: %v", err)
		return false
	}
	return true
}

// statusFor maps a domain error to an HTTP status.
func statusFor(err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, accountant.ErrPersist):
		// A ledger that cannot be made durable is a server fault, not a
		// client error — surface it as 5xx so operators and retry logic
		// see it.
		return http.StatusInternalServerError
	case errors.Is(err, ErrNotFound), errors.Is(err, curator.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrExists), errors.Is(err, curator.ErrExists):
		return http.StatusConflict
	case errors.Is(err, curator.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, accountant.ErrBudgetExceeded):
		return http.StatusForbidden
	case errors.Is(err, accountant.ErrIdempotencyMismatch):
		// The key was honored — against a different request. Replaying
		// it with altered parameters is a client bug, not a retry.
		return http.StatusConflict
	case errors.Is(err, core.ErrInvalidModel):
		return http.StatusUnprocessableEntity
	case errors.Is(err, infer.ErrTooLarge), errors.Is(err, core.ErrImpossibleEvidence):
		// Well-formed but unanswerable: the query compiled, the model
		// cannot answer it (factor over the cell cap, zero-mass
		// evidence).
		return http.StatusUnprocessableEntity
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":            "ok",
		"models":            s.registry.Len(),
		"workers_total":     s.workers.total,
		"workers_available": s.workers.available(),
		"queue_depth":       s.workers.queueDepth(),
	})
}

// handleReady is the readiness probe: where /healthz answers "the
// process is up", /readyz answers "startup completed and recovery is
// accounted for" — how many artifacts loaded (and how many were
// skipped as corrupt), whether a privacy ledger is attached, and how
// many bytes WAL recovery had to truncate to repair a torn tail.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":            "ready",
		"models":            s.registry.Len(),
		"model_load_errors": s.loadErrors,
		"ledger":            "none",
	}
	if s.ledger != nil {
		body["ledger"] = "ok"
		body["wal_recovered_truncated_bytes"] = s.ledger.RecoveredTruncation()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.registry.List()})
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	_, meta, err := s.registry.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, meta)
}

func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	if s.ledger == nil {
		writeJSON(w, http.StatusOK, map[string]any{"datasets": map[string]accountant.Entry{}})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": s.ledger.Snapshot()})
}

// handleUpload registers a SaveModel artifact posted as the request
// body. The artifact is fully revalidated; malformed documents are
// rejected with 422 and never panic (see core.ReadModelJSON).
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		id = s.freshID("upload")
	}
	if s.idCollidesWithLedger(id) {
		writeError(w, http.StatusBadRequest, "model id %q collides with the ledger file", id)
		return
	}
	if !ValidID(id) {
		writeError(w, http.StatusBadRequest, "server: invalid model id %q", id)
		return
	}
	model, epsilon, err := core.ReadModelJSON(http.MaxBytesReader(w, r.Body, s.maxBytes))
	if err == nil {
		err = s.publish(id, "upload", model, epsilon)
	}
	if err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	_, meta, _ := s.registry.Get(id)
	writeJSON(w, http.StatusCreated, meta)
}

// idCollidesWithLedger reports whether persisting model id would land
// on the privacy ledger's file — e.g. model id "ledger" with the ledger
// at <models-dir>/ledger.json. Allowing that write would replace the
// recorded ε spend with a model artifact, so colliding ids are rejected
// at registration time.
func (s *Server) idCollidesWithLedger(id string) bool {
	if s.cfg.ModelsDir == "" || s.ledgerPath == "" {
		return false
	}
	abs, err := filepath.Abs(filepath.Join(s.cfg.ModelsDir, id+".json"))
	return err == nil && abs == s.ledgerPath
}

// publish is the one way a model enters the registry at runtime —
// upload, POST /fit and curator refits: it registers the model, then
// writes it to the models directory so it survives restarts. Writing
// is best-effort: serving continues from memory if it fails, and the
// failure is logged. The write is crash-atomic — temp file, fsync,
// rename, directory fsync — so a crash at any point leaves either no
// artifact or the complete one, never a torn JSON document that would
// be skipped (with the model silently lost) at the next startup.
func (s *Server) publish(id, source string, m *core.Model, epsilon float64) error {
	if err := s.registry.Put(id, source, m, epsilon); err != nil {
		return err
	}
	if s.cfg.ModelsDir == "" {
		return nil
	}
	path := filepath.Join(s.cfg.ModelsDir, id+".json")
	if abs, err := filepath.Abs(path); err != nil || abs == s.ledgerPath {
		// Defense in depth behind idCollidesWithLedger.
		s.logf("persist %s: refusing to overwrite the ledger file", id)
		return nil
	}
	if err := s.atomicWriteModel(path, m, epsilon); err != nil {
		s.logf("persist %s: %v", id, err)
	}
	return nil
}

// atomicWriteModel writes the artifact durably: the temp name does not
// match LoadDir's *.json glob, so a leftover from a crashed write can
// never register as a model (New sweeps them at startup).
func (s *Server) atomicWriteModel(path string, m *core.Model, epsilon float64) error {
	dir := filepath.Dir(path)
	f, err := s.fs.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		s.fs.Remove(tmp)
		return err
	}
	if err := m.WriteJSON(f, epsilon); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	return s.fs.SyncDir(dir)
}

// synthesizeParams are the knobs of a synthesize request, from query
// parameters (GET/POST) or a JSON body (POST); a query parameter
// overrides the body.
type synthesizeParams struct {
	N           int    `json:"n"`
	Seed        *int64 `json:"seed"`
	Format      string `json:"format"`
	Parallelism int    `json:"parallelism"`
}

// applyQuery overlays the query parameters q on p and validates the
// format.
func (p *synthesizeParams) applyQuery(q url.Values) error {
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("parameter n: %v", err)
		}
		p.N = n
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("parameter seed: %v", err)
		}
		p.Seed = &seed
	}
	if v := q.Get("format"); v != "" {
		p.Format = v
	}
	if v := q.Get("parallelism"); v != "" {
		par, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("parameter parallelism: %v", err)
		}
		p.Parallelism = par
	}
	if p.Format == "" {
		p.Format = "csv"
	}
	if p.Format != "csv" && p.Format != "jsonl" {
		return fmt.Errorf("unknown format %q (want csv or jsonl)", p.Format)
	}
	return nil
}

// handleSynthesize streams n synthetic rows from a registered model.
//
// The response is generated in core.StreamChunkRows-row chunks: for
// each chunk the request claims workers from the server-wide budget,
// samples the chunk through Model.SampleContext and the
// internal/parallel pool, releases the workers, and only then writes
// the chunk to the client. Workers are never held across a client write, so a slow
// reader back-pressures its own TCP stream while the budget serves
// other requests, and per-request memory stays bounded by the chunk
// size no matter how large n is.
//
// Determinism: for a fixed (model, n, seed) the streamed rows are
// byte-identical across requests, worker counts, and server load —
// chunk geometry and RNG streams are derived from (n, seed) only (see
// core.Model.SampleContext). When the caller omits seed, the server draws one
// and returns it in the X-Privbayes-Seed header, so any stream can be
// reproduced later.
func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	model, meta, err := s.registry.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	var p synthesizeParams
	mediaType, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if r.Method == http.MethodPost && mediaType == "application/json" && !decodeBody(w, r, &p) {
		return
	}
	if err := p.applyQuery(r.URL.Query()); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if p.N < 1 || p.N > s.maxRows {
		writeError(w, http.StatusBadRequest, "n must be in [1, %d], got %d", s.maxRows, p.N)
		return
	}
	seed := rand.Int63()
	if p.Seed != nil {
		seed = *p.Seed
	}

	// Admission claims the first chunk's workers. Once admitted the
	// stream is committed — later chunk acquires pass shed=false and may
	// wait.
	got0, release0, ok := s.admit(w, r, p.Parallelism)
	if !ok {
		return
	}
	ctx := r.Context()
	want := s.requestWorkers(p.Parallelism)
	defer func() {
		if release0 != nil {
			release0()
		}
	}()

	w.Header().Set("X-Privbayes-Model", meta.ID)
	w.Header().Set("X-Privbayes-Seed", strconv.FormatInt(seed, 10))
	w.Header().Set("X-Privbayes-Rows", strconv.Itoa(p.N))
	format, contentType := dataset.FormatCSV, "text/csv; charset=utf-8"
	if p.Format == "jsonl" {
		format, contentType = dataset.FormatJSONL, "application/x-ndjson"
	}
	w.Header().Set("Content-Type", contentType)

	flusher, _ := w.(http.Flusher)
	rng := rand.New(rand.NewSource(seed))
	cells, err := s.registry.Cells(meta.ID, format)
	if err != nil {
		return
	}
	rw, err := cells.NewWriter(w)
	if err != nil {
		return
	}

	for lo := 0; lo < p.N; lo += core.StreamChunkRows {
		rows := min(core.StreamChunkRows, p.N-lo)
		// The first chunk rides on the admission grant; later chunks
		// re-acquire (non-shedding) so workers are never held across a
		// client write.
		got, release := got0, release0
		got0, release0 = 0, nil
		if release == nil {
			var err error
			got, release, err = s.workers.acquire(ctx, want, false)
			if err != nil {
				return // client gone while waiting for workers
			}
		}
		// The chunk samples at the granted worker count; the bytes do
		// not depend on it. The request context cancels generation
		// mid-chunk (every 2048 rows), so a disconnected client stops
		// costing CPU within one sample chunk.
		// Timing one chunk is a pure side channel: the clock reads
		// bracket the sample call and touch neither rng nor the chunk
		// geometry, so the streamed bytes are identical with telemetry
		// on and off (TestSynthesizeDeterministicWithTelemetry).
		var t0 time.Time
		if s.metrics.enabled() {
			t0 = time.Now()
		}
		chunk, err := model.SampleContext(ctx, rows, rng, got)
		if s.metrics.enabled() {
			s.metrics.pipelinePhase.With("sampling").Observe(time.Since(t0).Seconds())
		}
		release()
		if err != nil {
			return // client gone mid-generation
		}
		s.metrics.synthRows.Add(float64(rows))
		if err := rw.WriteRows(chunk, 0, rows); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleFit is curator mode: a multipart upload of schema + CSV + ε
// runs privbayes.Fit and registers (and persists) the resulting model.
// Every fit is metered against the dataset's ε budget in the ledger
// BEFORE the data is touched; a fit that would overdraw is rejected
// with 403 and computes nothing. The multipart fields are dataset_id,
// epsilon, schema (JSON array of AttrSpec), and optionally model_id,
// seed and parallelism; the CSV part must be named "data" and come
// last, so the upload streams without buffering.
//
// An Idempotency-Key header makes the fit safe to retry after an
// ambiguous failure (connection cut after the request was sent): the
// key is recorded durably with the ε charge in the ledger's WAL, so a
// retried fit — even against a restarted daemon — finds the charge,
// spends nothing, and either replays the finished model (200) or
// completes the interrupted fit under the already-recorded model id.
// A failed completion keeps that charge: the attempt that made it may
// have served its model before a restart lost it, so only the next
// retry under the key, which finishes the fit, settles it. Reusing a
// key with a different dataset or ε is rejected with 409.
func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	if s.ledger == nil {
		writeError(w, http.StatusServiceUnavailable, "curator mode disabled: no privacy ledger configured")
		return
	}
	idemKey := r.Header.Get("Idempotency-Key")
	if idemKey != "" {
		if !ValidID(idemKey) {
			writeError(w, http.StatusBadRequest, "invalid Idempotency-Key %q (want 1-128 chars of [A-Za-z0-9._-])", idemKey)
			return
		}
		// Single flight per key: a concurrent retry while the first
		// attempt is still fitting would race it to the registry — the
		// in-process window between the ledger's durable charge and
		// registry.Put, which the ledger cannot see. Turn the latecomer
		// away; by its retry the first attempt has finished (replay) or
		// failed (rerun).
		leave, ok := s.fitKeys.enter(idemKey)
		if !ok {
			writeRetryAfter(w, http.StatusConflict, 2,
				"a fit with Idempotency-Key %q is already in flight", idemKey)
			return
		}
		defer leave()
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBytes)
	mr, err := r.MultipartReader()
	if err != nil {
		writeError(w, http.StatusBadRequest, "multipart body required: %v", err)
		return
	}

	var (
		datasetID, modelID string
		epsilon            float64
		haveEpsilon        bool
		seed               int64
		haveSeed           bool
		par                int
		specs              []AttrSpec
		attrs              []dataset.Attribute
		spool              string // temp file holding the spooled CSV
		spend              *accountant.Spend
	)
	defer func() {
		if spool != "" {
			os.Remove(spool)
		}
		// Every return before the model is registered released nothing
		// observable, so the charge is returned (sequential composition
		// meters releases); a keyed refund also forgets the key, so a
		// retry charges and runs afresh. Spend.Refund does nothing once
		// the charge is kept, or when it replays an earlier attempt's.
		if err := spend.Refund(); err != nil {
			s.logf("refund %s ε=%g: %v", datasetID, epsilon, err)
		}
	}()

	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Only a clean end-of-form may end the loop: a malformed
			// part after the charge must reject (and refund), not be
			// silently dropped from an accepted fit.
			writeError(w, http.StatusBadRequest, "read multipart body: %v", err)
			return
		}
		name := part.FormName()
		// The data part must be last: the ledger is charged from the
		// fields in hand when it arrives, so a field accepted afterwards
		// could change ε (or the dataset id) after metering — a
		// privacy-accounting bypass. Reject instead.
		if spool != "" {
			writeError(w, http.StatusBadRequest, "field %q after the data part; data must come last", name)
			return
		}
		if name == "data" {
			// Everything needed to decode and meter the stream must be
			// in hand before the data part.
			if datasetID == "" || !haveEpsilon || specs == nil {
				writeError(w, http.StatusBadRequest, "dataset_id, epsilon and schema must precede the data part")
				return
			}
			attrs, err = dataset.SchemaFromSpecs(specs)
			if err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
			// Per-dataset concurrent-fit cap: the expensive section (CSV
			// decode + fit) starts here, and fits against one dataset all
			// contend for the same ε budget — shed the pile-up with 429
			// before any of it is spent.
			leave, ok := s.fits.enter(datasetID)
			if !ok {
				writeRetryAfter(w, http.StatusTooManyRequests, s.retryAfterSeconds(),
					"too many concurrent fits for dataset %q, retry later", datasetID)
				return
			}
			defer leave()
			// The model id is pinned before charging so it rides in the
			// WAL charge record: every charge names its model, and after
			// a crash a keyed retry finds the recorded charge and
			// finishes the fit under the same id without spending ε
			// again.
			if modelID == "" {
				modelID = s.freshID(datasetID + "-fit")
			}
			if s.idCollidesWithLedger(modelID) {
				writeError(w, http.StatusBadRequest, "model id %q collides with the ledger file", modelID)
				return
			}
			// Meter before reading a single row: the budget guards data
			// access, and a rejected fit must not consume the upload.
			if spend, err = s.ledger.Charge(datasetID, epsilon, idemKey, modelID); err != nil {
				writeError(w, statusFor(err), "%v", err)
				return
			}
			if spend.Replayed() {
				// The ledger has verified the retry matches the recorded
				// charge. If the fit also completed, replay its result
				// without reading the data; otherwise the first attempt
				// ended after the durable charge (crash, failure) — finish
				// the work now, charging nothing.
				modelID = spend.ModelID()
				if _, meta, err := s.registry.Get(modelID); err == nil {
					s.metrics.fits.With("replayed").Inc()
					w.Header().Set("X-Privbayes-Idempotency-Replay", "true")
					writeJSON(w, http.StatusOK, meta)
					return
				}
			}
			// Spool the CSV to disk instead of holding its text: the fit
			// below reads the spool file once, in bounded chunks, into
			// bit-packed columns (1 bit a binary cell). The 413 cap still
			// applies — MaxBytesReader fails the copy.
			spool, err = s.spoolCSV(part)
			if err != nil {
				// statusFor distinguishes an upload that blew the size
				// cap (413) from an unreadable body (400).
				writeError(w, statusFor(err), "%v", err)
				return
			}
			continue
		}
		val, err := readFormValue(part)
		if err != nil {
			writeError(w, http.StatusBadRequest, "field %s: %v", name, err)
			return
		}
		switch name {
		case "dataset_id":
			if !ValidID(val) {
				writeError(w, http.StatusBadRequest, "invalid dataset_id %q", val)
				return
			}
			datasetID = val
		case "model_id":
			if !ValidID(val) {
				writeError(w, http.StatusBadRequest, "invalid model_id %q", val)
				return
			}
			modelID = val
		case "epsilon":
			epsilon, err = strconv.ParseFloat(val, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "field epsilon: %v", err)
				return
			}
			haveEpsilon = true
		case "seed":
			seed, err = strconv.ParseInt(val, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "field seed: %v", err)
				return
			}
			haveSeed = true
		case "parallelism":
			par, err = strconv.Atoi(val)
			if err != nil {
				writeError(w, http.StatusBadRequest, "field parallelism: %v", err)
				return
			}
		case "schema":
			if err := json.Unmarshal([]byte(val), &specs); err != nil {
				writeError(w, http.StatusBadRequest, "field schema: %v", err)
				return
			}
		default:
			writeError(w, http.StatusBadRequest, "unknown field %q", name)
			return
		}
	}
	if spool == "" {
		writeError(w, http.StatusBadRequest, "missing data part")
		return
	}
	// Probe the spooled file before committing workers to the fit: a bad
	// header, an undecodable first row, or an empty body reject here with
	// the same diagnostics the in-memory decode used to produce.
	if err := probeCSV(spool, attrs); err != nil {
		writeError(w, statusFor(err), "%v", err)
		return
	}
	if _, _, err := s.registry.Get(modelID); err == nil {
		writeError(w, http.StatusConflict, "model id %q already registered", modelID)
		return
	}
	if !haveSeed {
		seed = rand.Int63()
	}

	// The fit itself runs on workers from the shared budget, like any
	// synthesis chunk; a shed fit is refunded like every early return.
	got, release, ok := s.admit(w, r, par)
	if !ok {
		return
	}
	// The request context cancels the fit: when the client disconnects
	// mid-fit, the greedy loop stops within one scoring batch instead
	// of running to completion server-side, and the charge is refunded —
	// an abandoned fit releases nothing, so it must cost nothing.
	fitOpts := []privbayes.Option{
		privbayes.WithEpsilon(epsilon),
		privbayes.WithSeed(seed),
		privbayes.WithParallelism(got),
	}
	if s.metrics.enabled() {
		// The progress adapter only reads the clock on serialized
		// events; it cannot reorder pipeline work or touch the fit's
		// seeded RNG, so the fitted model is identical with telemetry
		// on and off.
		pt := &phaseTimer{m: s.metrics}
		fitOpts = append(fitOpts, privbayes.WithProgress(pt.observe))
	}
	// The fit reads the spool file once, FitChunkRows rows at a time,
	// into bit-packed columns and fits from them in memory: the rows
	// cost 1 bit a binary cell, not the upload's text, and the fitted
	// model is byte-identical to the in-memory path for the same seed.
	model, err := privbayes.FitScanner(r.Context(), privbayes.CSVSource(spool, attrs, s.cfg.FitChunkRows), fitOpts...)
	release()
	if err != nil {
		s.metrics.fits.With("failed").Inc()
		writeError(w, http.StatusBadRequest, "fit: %v", err)
		return
	}
	if err := s.publish(modelID, "fit", model, epsilon); err != nil {
		s.metrics.fits.With("failed").Inc()
		writeError(w, statusFor(err), "%v", err)
		return
	}
	spend.Keep()
	s.metrics.fits.With("created").Inc()
	_, meta, _ := s.registry.Get(modelID)
	w.Header().Set("X-Privbayes-Seed", strconv.FormatInt(seed, 10))
	writeJSON(w, http.StatusCreated, meta)
}

// maxFieldBytes bounds one scalar multipart field (the schema JSON is
// the largest legitimate one).
const maxFieldBytes = 4 << 20

func readFormValue(part io.Reader) (string, error) {
	buf, err := io.ReadAll(io.LimitReader(part, maxFieldBytes+1))
	if err != nil {
		return "", err
	}
	if len(buf) > maxFieldBytes {
		return "", fmt.Errorf("field exceeds %d bytes", maxFieldBytes)
	}
	return string(buf), nil
}
