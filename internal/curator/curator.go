// Package curator implements the continuous-curation subsystem: per-
// dataset append-only row logs with crash-safe idempotent ingest,
// incremental maintenance of the mergeable count store, and budget-
// metered background refits that republish models atomically.
//
// The crash contract mirrors the serving stack's ledger: a row batch is
// acknowledged only after its WAL record is fsynced, so acknowledged
// appends survive kill -9 and unacknowledged ones vanish; refits charge
// ε through the accountant's idempotent keys, so a refit interrupted at
// any point spends either 0 or exactly its ε — never twice.
package curator

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"privbayes"
	"privbayes/internal/accountant"
	"privbayes/internal/core"
	"privbayes/internal/counts"
	"privbayes/internal/dataset"
	"privbayes/internal/faultfs"
	"privbayes/internal/marginal"
	"privbayes/internal/score"
	"privbayes/internal/wal"
)

// Sentinel errors, mapped to HTTP statuses by the serving layer.
var (
	ErrNotFound       = errors.New("curator: dataset not found")
	ErrExists         = errors.New("curator: dataset already exists")
	ErrSchemaMismatch = errors.New("curator: batch schema does not match dataset schema")
	ErrClosed         = errors.New("curator: closed")
)

// Config parameterizes a Curator.
type Config struct {
	// Dir holds one row log per curated dataset (<id>.rows). Required.
	Dir string
	// Ledger meters refit ε. nil disables refits (ingest-only curation).
	Ledger *accountant.Ledger
	// RefitEpsilon is the ε charged per refit. <= 0 disables refits.
	RefitEpsilon float64
	// RefitRows triggers a refit once that many rows have accumulated
	// beyond the last fitted model. <= 0 disables the row trigger.
	RefitRows int64
	// RefitMaxStaleness triggers a refit once unfitted rows are older
	// than this. <= 0 disables the staleness trigger.
	RefitMaxStaleness time.Duration
	// PollInterval is the staleness check cadence; <= 0 selects 15s.
	PollInterval time.Duration
	// ChunkRows bounds rows materialized at a time during log scans
	// (cold fits, store rebuilds); <= 0 selects dataset.DefaultChunkRows.
	ChunkRows int
	// FitOptions extend cold refits (seed, degree, β...). ε and
	// parallelism are always appended by the curator and win.
	FitOptions []privbayes.Option
	// Seed, when set, seeds each incremental refit's generator; nil
	// draws a cryptographic seed per refit.
	Seed func() int64
	// Acquire reserves fit workers from the serving layer's budget;
	// nil runs refits at parallelism 2 unmetered. The returned release
	// must be called when the refit finishes.
	Acquire func(ctx context.Context, want int) (got int, release func(), err error)
	// Publish installs a refit model into the serving registry. nil
	// records the fit marker without serving the model.
	Publish func(id string, m *privbayes.Model, epsilon float64) error
	// Lookup fetches a previously published model, reporting whether it
	// exists — the crash-recovery probe for refits that charged ε and
	// published but died before writing their fit marker.
	Lookup func(id string) (*privbayes.Model, bool)
	// FS is the filesystem seam for the row logs; nil selects the real
	// filesystem.
	FS faultfs.FS
	// Logf receives operational notes; nil discards them.
	Logf func(format string, args ...any)
	// Metrics instruments the curator; nil disables instrumentation.
	Metrics *Metrics
}

// Curator manages every curated dataset under one directory.
type Curator struct {
	cfg Config
	fs  faultfs.FS

	mu       sync.Mutex
	datasets map[string]*curated
	closed   bool

	wg   sync.WaitGroup
	stop chan struct{}
}

// curated is one dataset's live state.
type curated struct {
	c    *Curator
	id   string
	path string

	mu    sync.Mutex
	log   *wal.Log
	attrs []dataset.Attribute
	rows  int64
	keys  map[string]int64 // acknowledged batch key -> rows after that batch

	fit        *fitMarker    // latest fit; nil before the first
	store      *counts.Store // incremental counts over fit.Network; nil before the first fit
	dirtySince time.Time     // first unfitted append; zero when model is fresh
	refitting  bool
	failedRows int64 // rows at the last failed refit; re-armed by new appends
}

// New opens (or creates) the curator directory and recovers every
// existing row log in it: replaying metadata, truncating torn tails,
// and rebuilding incremental count stores for datasets with a fit.
func New(cfg Config) (*Curator, error) {
	if cfg.Dir == "" {
		return nil, errors.New("curator: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	c := &Curator{
		cfg:      cfg,
		fs:       faultfs.Or(cfg.FS),
		datasets: map[string]*curated{},
		stop:     make(chan struct{}),
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".rows") {
			continue
		}
		id := strings.TrimSuffix(name, ".rows")
		d, err := c.recover(id, filepath.Join(cfg.Dir, name))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("curator: recover %s: %w", id, err)
		}
		if d != nil {
			c.datasets[id] = d
		}
	}
	c.cfg.Metrics.observe(c)
	if c.refitsEnabled() {
		// Recovered datasets may already be past a trigger.
		for _, d := range c.datasets {
			d.mu.Lock()
			d.maybeRefitLocked()
			d.mu.Unlock()
		}
		if cfg.RefitMaxStaleness > 0 {
			c.wg.Add(1)
			go c.pollStaleness()
		}
	}
	return c, nil
}

func (c *Curator) refitsEnabled() bool {
	return c.cfg.Ledger != nil && c.cfg.RefitEpsilon > 0 &&
		(c.cfg.RefitRows > 0 || c.cfg.RefitMaxStaleness > 0)
}

func (c *Curator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// validID keeps dataset ids safe as file names; the HTTP layer applies
// its stricter id grammar before calling in.
func validID(id string) error {
	if id == "" || len(id) > 128 || strings.ContainsAny(id, "/\\") ||
		strings.Contains(id, "..") || strings.HasPrefix(id, ".") {
		return fmt.Errorf("curator: invalid dataset id %q", id)
	}
	return nil
}

// Create registers a new curated dataset with the given schema and
// writes its row log's schema record durably before returning.
func (c *Curator) Create(id string, attrs []dataset.Attribute) error {
	if err := validID(id); err != nil {
		return err
	}
	rec, err := encodeSchema(attrs)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if _, ok := c.datasets[id]; ok {
		return ErrExists
	}
	path := filepath.Join(c.cfg.Dir, id+".rows")
	if _, err := os.Stat(path); err == nil {
		return ErrExists
	}
	log, err := wal.Open(path, wal.Options{FS: c.cfg.FS}, func(int64, []byte) error { return nil })
	if err != nil {
		return err
	}
	if err := log.Append(rec); err != nil {
		log.Close()
		c.fs.Remove(path)
		return err
	}
	c.datasets[id] = &curated{
		c: c, id: id, path: path, log: log,
		attrs: append([]dataset.Attribute(nil), attrs...),
		keys:  map[string]int64{},
	}
	return nil
}

// recover rebuilds one dataset's state from its row log: schema from
// the type-0 record, row count and batch keys from type-1 headers
// (values are not retained), the latest fit marker from type-2 — then
// one streaming scan to rebuild the incremental count store when a fit
// exists. A log that holds no record is a Create a crash cut short:
// Create acknowledges only once the schema record is durable, so
// nothing in it was acknowledged. recover removes it, so the id can be
// created again, and returns a nil dataset.
func (c *Curator) recover(id, path string) (*curated, error) {
	d := &curated{c: c, id: id, path: path, keys: map[string]int64{}}
	log, err := wal.Open(path, wal.Options{FS: c.cfg.FS}, func(_ int64, payload []byte) error {
		if len(payload) == 0 {
			return errors.New("empty record")
		}
		switch payload[0] {
		case recSchema:
			attrs, err := decodeSchema(payload[1:])
			if err != nil {
				return err
			}
			d.attrs = attrs
		case recRows:
			if d.attrs == nil {
				return errors.New("rows record before schema record")
			}
			h, err := decodeRowsHeader(payload[1:])
			if err != nil {
				return err
			}
			if h.d != len(d.attrs) {
				return fmt.Errorf("rows record has %d columns, schema has %d", h.d, len(d.attrs))
			}
			d.rows += int64(h.n)
			if h.key != "" {
				d.keys[h.key] = d.rows
			}
		case recFit:
			var fm fitMarker
			if err := unmarshalFitMarker(payload[1:], &fm); err != nil {
				return err
			}
			d.fit = &fm
		default:
			return fmt.Errorf("unknown record type %d", payload[0])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if log.Records() == 0 {
		log.Close()
		return nil, c.fs.Remove(path)
	}
	if d.attrs == nil {
		log.Close()
		return nil, errors.New("row log has no schema record")
	}
	d.log = log
	if d.fit != nil {
		st, err := c.buildStore(d, d.fit.Network, d.rows)
		if err != nil {
			log.Close()
			return nil, err
		}
		d.store = st
	}
	if d.rows > fitRows(d.fit) {
		// Unfitted rows exist; their true append time is unknown, so
		// staleness restarts at recovery.
		d.dirtySince = time.Now()
	}
	return d, nil
}

// buildStore registers the network's AP pairs in a fresh store and
// seeds it with one streaming scan over the log's first maxRows rows.
func (c *Curator) buildStore(d *curated, net core.Network, maxRows int64) (*counts.Store, error) {
	st, err := registeredStore(d.attrs, net)
	if err != nil {
		return nil, err
	}
	if maxRows == 0 {
		return st, nil
	}
	if err := st.Scan(context.Background(), rowLogSource(c.fs, d.path, d.attrs, c.cfg.ChunkRows, maxRows)); err != nil {
		return nil, err
	}
	return st, nil
}

func registeredStore(attrs []dataset.Attribute, net core.Network) (*counts.Store, error) {
	st := counts.NewStore(attrs)
	for _, pair := range net.Pairs {
		if err := st.Register(pair.Parents, []marginal.Var{pair.X}); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func fitRows(fm *fitMarker) int64 {
	if fm == nil {
		return 0
	}
	return fm.Rows
}

// lookup fetches a dataset.
func (c *Curator) lookup(id string) (*curated, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	d, ok := c.datasets[id]
	if !ok {
		return nil, ErrNotFound
	}
	return d, nil
}

// Attrs returns a dataset's schema.
func (c *Curator) Attrs(id string) ([]dataset.Attribute, error) {
	d, err := c.lookup(id)
	if err != nil {
		return nil, err
	}
	return d.attrs, nil
}

// Len returns the number of curated datasets.
func (c *Curator) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.datasets)
}

// List returns the curated dataset ids, unordered.
func (c *Curator) List() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.datasets))
	for id := range c.datasets {
		ids = append(ids, id)
	}
	return ids
}

// Append durably ingests one batch of rows. A non-empty key makes the
// append idempotent: replaying an acknowledged key is a no-op reporting
// duplicate=true, so clients retry failed appends safely. The batch is
// acknowledged only after its record is fsynced to the row log.
func (c *Curator) Append(id, key string, batch *dataset.Dataset) (duplicate bool, err error) {
	d, err := c.lookup(id)
	if err != nil {
		return false, err
	}
	if batch.N() == 0 {
		return false, errors.New("curator: empty batch")
	}
	if !attrsEqual(batch.Attrs(), d.attrs) {
		return false, ErrSchemaMismatch
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if key != "" {
		if _, ok := d.keys[key]; ok {
			c.cfg.Metrics.batch("duplicate", 0)
			return true, nil
		}
	}
	rec, err := encodeRows(key, batch)
	if err != nil {
		c.cfg.Metrics.batch("rejected", 0)
		return false, err
	}
	if err := d.log.Append(rec); err != nil {
		c.cfg.Metrics.batch("rejected", 0)
		return false, err
	}
	// Acknowledged: the record is on stable storage.
	d.rows += int64(batch.N())
	if key != "" {
		d.keys[key] = d.rows
	}
	if d.store != nil {
		if err := d.store.Accumulate(batch); err != nil {
			// Counts and log have diverged; drop the store so the next
			// refit rebuilds it from the log.
			c.logf("curator %s: count store diverged, dropping: %v", id, err)
			d.store = nil
		}
	}
	if d.dirtySince.IsZero() {
		d.dirtySince = time.Now()
	}
	c.cfg.Metrics.batch("appended", batch.N())
	d.maybeRefitLocked()
	return false, nil
}

// Status is a curated dataset's externally visible state.
type Status struct {
	ID           string `json:"id"`
	Rows         int64  `json:"rows"`
	UnfittedRows int64  `json:"unfitted_rows"`
	// Staleness is seconds since the oldest unfitted append; 0 when the
	// model covers every ingested row.
	StalenessSeconds float64 `json:"staleness_seconds"`
	ModelID          string  `json:"model_id,omitempty"`
	FitRows          int64   `json:"fit_rows,omitempty"`
	FitKind          string  `json:"fit_kind,omitempty"`
	FitUnixNano      int64   `json:"fit_unix_nano,omitempty"`
	FitEpsilon       float64 `json:"fit_epsilon,omitempty"`
	EpsilonSpent     float64 `json:"epsilon_spent"`
	EpsilonBudget    float64 `json:"epsilon_budget,omitempty"`
	Refitting        bool    `json:"refitting,omitempty"`
}

// Status reports a dataset's row count, staleness, last refit and ε
// standing.
func (c *Curator) Status(id string) (Status, error) {
	d, err := c.lookup(id)
	if err != nil {
		return Status{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := Status{ID: id, Rows: d.rows, UnfittedRows: d.rows - fitRows(d.fit), Refitting: d.refitting}
	if !d.dirtySince.IsZero() {
		s.StalenessSeconds = time.Since(d.dirtySince).Seconds()
	}
	if d.fit != nil {
		s.ModelID = d.fit.ModelID
		s.FitRows = d.fit.Rows
		s.FitKind = d.fit.Kind
		s.FitUnixNano = d.fit.UnixNano
		s.FitEpsilon = d.fit.Epsilon
	}
	if c.cfg.Ledger != nil {
		e := c.cfg.Ledger.Get(id)
		s.EpsilonSpent = e.Spent
		s.EpsilonBudget = e.Budget
	}
	return s, nil
}

// StalenessSeconds returns the age of the oldest unfitted append across
// all curated datasets — the staleness gauge.
func (c *Curator) StalenessSeconds() float64 {
	c.mu.Lock()
	ds := make([]*curated, 0, len(c.datasets))
	for _, d := range c.datasets {
		ds = append(ds, d)
	}
	c.mu.Unlock()
	var oldest time.Time
	for _, d := range ds {
		d.mu.Lock()
		t := d.dirtySince
		d.mu.Unlock()
		if !t.IsZero() && (oldest.IsZero() || t.Before(oldest)) {
			oldest = t
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest).Seconds()
}

// StoreCells returns the total live count-table cells across curated
// datasets — the count-store size gauge (8 bytes of memory per cell).
func (c *Curator) StoreCells() int {
	c.mu.Lock()
	ds := make([]*curated, 0, len(c.datasets))
	for _, d := range c.datasets {
		ds = append(ds, d)
	}
	c.mu.Unlock()
	total := 0
	for _, d := range ds {
		d.mu.Lock()
		if d.store != nil {
			cells, _ := d.store.Cells()
			total += cells
		}
		d.mu.Unlock()
	}
	return total
}

// pollStaleness drives the staleness trigger for quiet datasets that
// stopped receiving appends.
func (c *Curator) pollStaleness() {
	defer c.wg.Done()
	iv := c.cfg.PollInterval
	if iv <= 0 {
		iv = 15 * time.Second
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		c.mu.Lock()
		ds := make([]*curated, 0, len(c.datasets))
		for _, d := range c.datasets {
			ds = append(ds, d)
		}
		c.mu.Unlock()
		for _, d := range ds {
			d.mu.Lock()
			d.maybeRefitLocked()
			d.mu.Unlock()
		}
	}
}

// maybeRefitLocked starts a background refit when a trigger fires.
// Caller holds d.mu.
func (d *curated) maybeRefitLocked() {
	c := d.c
	if !c.refitsEnabled() || d.refitting {
		return
	}
	select {
	case <-c.stop:
		return // closing: no new refits
	default:
	}
	unfitted := d.rows - fitRows(d.fit)
	if unfitted <= 0 || d.rows <= d.failedRows {
		return
	}
	rowTrig := c.cfg.RefitRows > 0 && unfitted >= c.cfg.RefitRows
	staleTrig := c.cfg.RefitMaxStaleness > 0 && !d.dirtySince.IsZero() &&
		time.Since(d.dirtySince) >= c.cfg.RefitMaxStaleness
	if !rowTrig && !staleTrig {
		return
	}
	d.refitting = true
	c.wg.Add(1)
	go c.runRefit(d)
}

// refitRand derives the generator for one incremental refit.
func (c *Curator) refitRand() *rand.Rand {
	if c.cfg.Seed != nil {
		return rand.New(rand.NewSource(c.cfg.Seed()))
	}
	return core.CryptoSource().Rand()
}

// runRefit performs one refit end to end: snapshot, idempotent ε
// charge, fit (incremental over the count store when the network is
// known, cold over the row log otherwise), publish, durable fit marker.
func (c *Curator) runRefit(d *curated) {
	defer c.wg.Done()
	t0 := time.Now()
	outcome, kind, err := c.refit(d)
	c.cfg.Metrics.refit(outcome, kind, time.Since(t0).Seconds())
	if err != nil {
		c.logf("curator %s: refit (%s) %s: %v", d.id, kind, outcome, err)
	} else if outcome != "skipped" {
		c.logf("curator %s: refit (%s) %s in %s", d.id, kind, outcome, time.Since(t0).Round(time.Millisecond))
	}
	d.mu.Lock()
	d.refitting = false
	// Appends may have landed during the refit; re-check triggers so a
	// busy dataset keeps converging.
	d.maybeRefitLocked()
	d.mu.Unlock()
}

func (c *Curator) refit(d *curated) (outcome, kind string, err error) {
	eps := c.cfg.RefitEpsilon

	// Snapshot under the lock: row count, and for incremental refits a
	// mergeable copy of the count store, so appends continue during the
	// fit without perturbing it.
	d.mu.Lock()
	rowsAt := d.rows
	prevFit := d.fit
	var snap *counts.Store
	if prevFit != nil && d.store != nil && int64(d.store.Rows()) == rowsAt {
		if s, cerr := registeredStore(d.attrs, prevFit.Network); cerr == nil && s.Merge(d.store) == nil {
			snap = s
		}
	}
	d.mu.Unlock()
	if rowsAt == 0 {
		return "skipped", "", nil
	}
	kind = "cold"
	if snap != nil {
		kind = "incremental"
	}

	// A refit that ends before its model is published released nothing:
	// its ε is returned (Spend.Refund keeps a replayed charge, whose
	// earlier run may have published) and it re-arms only once new rows
	// arrive. A failed fit marker does neither: the model is published
	// and paid for, and the retry that recovery or the next trigger runs
	// rewrites the marker.
	var spend *accountant.Spend
	published := false
	defer func() {
		if err == nil || published {
			return
		}
		if rerr := spend.Refund(); rerr != nil {
			c.logf("curator %s: refund failed: %v", d.id, rerr)
		}
		d.mu.Lock()
		d.failedRows = rowsAt
		d.mu.Unlock()
	}()
	spend, err = c.cfg.Ledger.Charge(d.id, eps, fmt.Sprintf("curator-%s-%d", d.id, rowsAt),
		fmt.Sprintf("%s-refit-%d", d.id, rowsAt))
	if err != nil {
		return "skipped", kind, err
	}
	modelID := spend.ModelID()
	if spend.Replayed() && c.cfg.Lookup != nil {
		if m, ok := c.cfg.Lookup(modelID); ok {
			// A previous run charged, published, and died before its fit
			// marker landed: adopt the published model.
			published = true
			if err := c.recordFit(d, m, modelID, eps, "recovered", rowsAt); err != nil {
				return "failed", kind, err
			}
			return "recovered", kind, nil
		}
		// Charged but never published: finish the fit without paying again.
	}

	ctx := context.Background()
	par := 2
	if c.cfg.Acquire != nil {
		got, release, err := c.cfg.Acquire(ctx, 2)
		if err != nil {
			return "skipped", kind, err
		}
		par = got
		defer release()
	}

	var m *privbayes.Model
	if snap != nil {
		mode := core.ModeGeneral
		if prevFit.K >= 0 {
			mode = core.ModeBinary
		}
		m, err = core.RefitCountsContext(ctx, d.attrs, snap, prevFit.Network, prevFit.K, core.Options{
			Epsilon:     eps,
			Mode:        mode,
			Score:       score.Function(prevFit.Score),
			Parallelism: par,
			Rand:        c.refitRand(),
		})
	} else {
		src := rowLogSource(c.fs, d.path, d.attrs, c.cfg.ChunkRows, rowsAt)
		opts := append(append([]privbayes.Option(nil), c.cfg.FitOptions...),
			privbayes.WithEpsilon(eps), privbayes.WithParallelism(par))
		m, err = privbayes.FitScanner(ctx, src, opts...)
	}
	if err != nil {
		return "failed", kind, err
	}
	if c.cfg.Publish != nil {
		if err := c.cfg.Publish(modelID, m, eps); err != nil {
			return "failed", kind, err
		}
	}
	published = true
	if err := c.recordFit(d, m, modelID, eps, kind, rowsAt); err != nil {
		return "failed", kind, err
	}
	return "published", kind, nil
}

// recordFit writes the durable fit marker and installs the new fit
// state: marker, refreshed count store, staleness.
func (c *Curator) recordFit(d *curated, m *privbayes.Model, modelID string, eps float64, kind string, rowsAt int64) error {
	fm := &fitMarker{
		ModelID:  modelID,
		Epsilon:  eps,
		Rows:     rowsAt,
		Kind:     kind,
		K:        m.K,
		Score:    int(m.Score),
		Network:  m.Network,
		UnixNano: nowUnixNano(),
	}
	payload, err := marshalFitMarker(fm)
	if err != nil {
		return err
	}

	// Install the new network's store before appends resume counting:
	// swap in an empty registered store under the lock, then seed it
	// from the log up to the swap point — concurrent appends accumulate
	// into the swapped store and merge exactly.
	d.mu.Lock()
	if err := d.log.Append(payload); err != nil {
		d.mu.Unlock()
		return err
	}
	d.fit = fm
	if d.rows == rowsAt {
		d.dirtySince = time.Time{}
	} else {
		d.dirtySince = time.Now()
	}
	needSeed := false
	var seedRows int64
	if d.store == nil || !sameNetwork(d.store, fm.Network) {
		st, serr := registeredStore(d.attrs, fm.Network)
		if serr != nil {
			d.store = nil
			d.mu.Unlock()
			return serr
		}
		d.store = st
		seedRows = d.rows
		needSeed = seedRows > 0
	}
	d.mu.Unlock()

	if needSeed {
		side, serr := c.buildStore(d, fm.Network, seedRows)
		if serr == nil {
			serr = d.store.Merge(side)
		}
		if serr != nil {
			c.logf("curator %s: count store seed failed, next refit will be cold: %v", d.id, serr)
			d.mu.Lock()
			d.store = nil
			d.mu.Unlock()
		}
	}
	return nil
}

// sameNetwork reports whether the store's registered tables serve the
// network (it was built by registeredStore for an equal network).
func sameNetwork(st *counts.Store, net core.Network) bool {
	for _, pair := range net.Pairs {
		if !st.Holds(pair.Parents, pair.X) {
			return false
		}
	}
	_, tables := st.Cells()
	return tables == len(net.Pairs)
}

// Close stops background work and closes every row log. In-flight
// refits run to completion first.
func (c *Curator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.stop)
	ds := make([]*curated, 0, len(c.datasets))
	for _, d := range c.datasets {
		ds = append(ds, d)
	}
	c.mu.Unlock()
	c.wg.Wait()
	var first error
	for _, d := range ds {
		d.mu.Lock()
		err := d.log.Close()
		d.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}
