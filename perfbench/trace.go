package main

// Per-layer tracing of the library workloads, done entirely from
// outside the program: the traced fit calls each layer's public
// functions itself and times the calls at the layer boundaries.
//
//   - dataset: the ChunkSource is wrapped so every Open and Scanner.Next
//     is timed and counted.
//   - counts: the counts.Provider is wrapped in a BatchCountSource that
//     times Prefetch and CountTables, then handed to
//     core.FitCountsContext — exactly the call FitScanner makes.
//   - score / marginal: the scorer is built here (score.NewScorerSized or
//     NewScorerCounts) and passed in through core.Options.Scorer, so its
//     index-cache and memo counters can be read after the fit.
//   - core: progress events give per-phase times; runtime.MemStats
//     deltas give allocation and GC cycles per fit.
//   - infer: core.QueryStats collects factor products and peak cells.
//
// Attribution conventions. The distribution phase's prefetch scan runs
// before the marginals phase opens, so progress-derived phase times
// (core.network_s here, phase="network" on the daemon) include it. The
// traced run attributes scan and counting time from its own wrappers
// instead. Per fit, dataset.scan_s + counts.self_s + core.rest_s +
// trace.unattributed_s is the traced fit time, where core.rest_s is the
// core call minus the time a counts call was in flight, and
// trace.unattributed_s is what falls between the timed calls. The
// row-count scan in NewProvider runs before any phase; it is inside
// that sum and also reported on its own as counts.rowcount_s.

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"

	"privbayes"
	"privbayes/internal/core"
	"privbayes/internal/counts"
	"privbayes/internal/dataset"
	"privbayes/internal/infer"
	"privbayes/internal/marginal"
	"privbayes/internal/score"
)

// coreOptions reproduces the options the facade derives from
// fitOptions for an all-binary schema; the traced run checks that the
// resulting model is byte-identical to the facade's.
func coreOptions(seed int64) core.Options {
	return core.Options{
		Epsilon: epsilon, Beta: privbayes.DefaultBeta, Theta: privbayes.DefaultTheta,
		K: degree, Mode: core.ModeBinary, Score: score.F,
		Parallelism: parallelism, Rand: core.NewSource(seed).Rand(),
	}
}

// fitStats is what one traced fit observed.
type fitStats struct {
	wall        float64 // whole traced fit, seconds
	core        float64 // the core.FitContext / FitCountsContext call
	rowcount    float64 // NewProvider's counting scan
	countsBusy  float64 // union of Prefetch/CountTables call intervals
	prefetch    float64
	countTables float64
	prefetches  int64
	scan        float64 // Open + Scanner.Next, all scans
	scans       int64
	rowsDecoded int64
	provScans   int64
	provRows    int64
	network     float64
	iterMax     float64
	marginals   float64
	hits        int64
	misses      int64
	memo        int
	allocMB     float64
	gcCycles    uint32
}

type libTrace struct {
	fits     []fitStats
	sampling phaseClock
	queries  []*infer.Stats
}

func newLibTrace() *libTrace { return &libTrace{sampling: phaseClock{phase: core.PhaseSampling}} }

func (t *libTrace) queryStats() core.QueryOption {
	s := &infer.Stats{}
	t.queries = append(t.queries, s)
	return core.QueryStats(s)
}

// fit is the traced in-memory fit: core.FitContext with a scorer the
// benchmark owns.
func (t *libTrace) fit(ctx context.Context, ds *dataset.Dataset, seed int64) (*privbayes.Model, error) {
	var st fitStats
	net := &netClock{}
	ms := startMem()
	t0 := time.Now()
	opt := coreOptions(seed)
	sc := score.NewScorerSized(score.F, ds, 0)
	opt.Scorer = sc
	opt.Progress = net.observe
	t1 := time.Now()
	m, err := core.FitContext(ctx, ds, opt)
	st.core = time.Since(t1).Seconds()
	st.wall = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	st.allocMB, st.gcCycles = ms.stop()
	st.network, st.iterMax, st.marginals = net.network, net.iterMax, net.marginals
	st.hits, st.misses = sc.Indexes().Stats()
	st.memo = sc.CacheSize()
	t.fits = append(t.fits, st)
	return m, nil
}

// fitScanner is the traced out-of-core fit: the body of
// privbayes.FitScanner with every layer boundary wrapped.
func (t *libTrace) fitScanner(ctx context.Context, src *dataset.ChunkSource, seed int64) (*privbayes.Model, error) {
	var st fitStats
	scans := &scanClock{}
	wrapped := &dataset.ChunkSource{Attrs: src.Attrs, ChunkRows: src.ChunkRows, Open: func() (dataset.Scanner, error) {
		t0 := time.Now()
		sc, err := src.Open()
		scans.add(time.Since(t0), 0, true)
		if err != nil {
			return nil, err
		}
		return &tracedScanner{Scanner: sc, clock: scans}, nil
	}}
	opt := coreOptions(seed)
	net := &netClock{}
	opt.Progress = net.observe
	ms := startMem()
	t0 := time.Now()
	p, err := counts.NewProvider(ctx, wrapped, opt.Parallelism)
	if err != nil {
		return nil, err
	}
	st.rowcount = time.Since(t0).Seconds()
	cs := &tracedCounts{p: p}
	sc := score.NewScorerCounts(score.F, src.Attrs, cs, 0)
	opt.Scorer = sc
	t1 := time.Now()
	m, err := core.FitCountsContext(ctx, src.Attrs, cs, opt)
	st.core = time.Since(t1).Seconds()
	st.wall = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	st.allocMB, st.gcCycles = ms.stop()
	st.countsBusy, st.prefetch, st.countTables, st.prefetches = cs.busy, cs.prefetch, cs.countTables, cs.prefetches
	st.scan, st.scans, st.rowsDecoded = scans.seconds, scans.scans, scans.rows
	st.provScans, st.provRows = p.Stats()
	st.network, st.iterMax, st.marginals = net.network, net.iterMax, net.marginals
	st.hits, st.misses = sc.Indexes().Stats()
	st.memo = sc.CacheSize()
	t.fits = append(t.fits, st)
	return m, nil
}

// scanClock accumulates time spent opening and reading the source.
type scanClock struct {
	mu      sync.Mutex
	seconds float64
	scans   int64
	rows    int64
}

func (c *scanClock) add(d time.Duration, rows int, open bool) {
	c.mu.Lock()
	c.seconds += d.Seconds()
	c.rows += int64(rows)
	if open {
		c.scans++
	}
	c.mu.Unlock()
}

type tracedScanner struct {
	dataset.Scanner
	clock *scanClock
}

func (s *tracedScanner) Next() (*dataset.Dataset, error) {
	t0 := time.Now()
	d, err := s.Scanner.Next()
	rows := 0
	if d != nil {
		rows = d.N()
	}
	s.clock.add(time.Since(t0), rows, false)
	return d, err
}

// tracedCounts wraps the provider at the marginal.BatchCountSource
// seam. Scoring calls CountTables from several workers at once, so busy
// is the union of call intervals, not their sum.
type tracedCounts struct {
	p *counts.Provider

	mu          sync.Mutex
	inFlight    int
	since       time.Time
	busy        float64
	prefetch    float64
	countTables float64
	prefetches  int64
}

func (c *tracedCounts) enter() time.Time {
	now := time.Now()
	c.mu.Lock()
	if c.inFlight == 0 {
		c.since = now
	}
	c.inFlight++
	c.mu.Unlock()
	return now
}

func (c *tracedCounts) exit(t0 time.Time, prefetch bool) {
	now := time.Now()
	c.mu.Lock()
	c.inFlight--
	if c.inFlight == 0 {
		c.busy += now.Sub(c.since).Seconds()
	}
	if prefetch {
		c.prefetch += now.Sub(t0).Seconds()
		c.prefetches++
	} else {
		c.countTables += now.Sub(t0).Seconds()
	}
	c.mu.Unlock()
}

func (c *tracedCounts) Rows() int { return c.p.Rows() }

func (c *tracedCounts) CountTables(parents, children []marginal.Var) ([]*marginal.Table, error) {
	t0 := c.enter()
	defer c.exit(t0, false)
	return c.p.CountTables(parents, children)
}

func (c *tracedCounts) Prefetch(ctx context.Context, reqs []marginal.CountRequest) error {
	t0 := c.enter()
	defer c.exit(t0, true)
	return c.p.Prefetch(ctx, reqs)
}

// netClock turns a fit's progress events into phase times: the network
// phase from its opening event to its last iteration, the longest
// single greedy iteration, and the marginals phase.
type netClock struct {
	last      time.Time
	start     time.Time
	network   float64
	iterMax   float64
	marginals float64
}

func (c *netClock) observe(ev core.ProgressEvent) {
	now := time.Now()
	switch {
	case ev.Phase == core.PhaseNetwork && ev.Done == 0:
		c.start, c.last = now, now
	case ev.Phase == core.PhaseNetwork:
		c.iterMax = max(c.iterMax, now.Sub(c.last).Seconds())
		c.last = now
		c.network = now.Sub(c.start).Seconds()
	case ev.Phase == core.PhaseMarginals && ev.Done == 0:
		c.start = now
	case ev.Phase == core.PhaseMarginals:
		c.marginals = now.Sub(c.start).Seconds()
	}
}

// phaseClock sums the durations of one phase across many runs of it.
type phaseClock struct {
	phase   core.Phase
	start   time.Time
	seconds []float64
}

func (c *phaseClock) observe(ev core.ProgressEvent) {
	if ev.Phase != c.phase {
		return
	}
	if ev.Done == 0 {
		c.start = time.Now()
	}
	if ev.Total > 0 && ev.Done >= ev.Total {
		c.seconds = append(c.seconds, time.Since(c.start).Seconds())
	}
}

type memClock struct{ alloc, gc uint64 }

func startMem() memClock {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memClock{ms.TotalAlloc, uint64(ms.NumGC)}
}

func (m memClock) stop() (float64, uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-m.alloc) / (1 << 20), uint32(uint64(ms.NumGC) - m.gc)
}

// report turns the traced fits into per-layer metrics: times and
// counts are means per fit, so the fit-time decomposition adds up.
func (t *libTrace) report(b *bench, outOfCore bool, csvBytes int64) {
	n := float64(len(t.fits))
	avg := func(f func(fitStats) float64) float64 {
		var s float64
		for _, st := range t.fits {
			s += f(st)
		}
		return s / n
	}
	walls := make([]float64, len(t.fits))
	for i, st := range t.fits {
		walls[i] = st.wall
	}
	scan := avg(func(s fitStats) float64 { return s.scan })
	self := avg(func(s fitStats) float64 { return s.rowcount + s.countsBusy - s.scan })
	rest := avg(func(s fitStats) float64 { return s.core - s.countsBusy })
	if !outOfCore {
		self = 0
	}
	scans := avg(func(s fitStats) float64 { return float64(s.scans) })
	hits := avg(func(s fitStats) float64 { return float64(s.hits) })
	misses := avg(func(s fitStats) float64 { return float64(s.misses) })
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	products := make([]float64, len(t.queries))
	peaks := make([]float64, len(t.queries))
	for i, q := range t.queries {
		products[i], peaks[i] = float64(q.Products), float64(q.PeakCells)
	}
	sort.Float64s(peaks)

	put := func(name string, v float64) { b.layers[name] = v }
	put("traced.fit_p50_s", median(walls))
	put("traced.fit_mean_s", mean(walls))
	put("trace.unattributed_s", mean(walls)-scan-self-rest)
	put("dataset.scan_s", scan)
	put("dataset.scans", scans)
	put("dataset.rows_decoded", avg(func(s fitStats) float64 { return float64(s.rowsDecoded) }))
	put("dataset.bytes_read", scans*float64(csvBytes))
	put("counts.rowcount_s", avg(func(s fitStats) float64 { return s.rowcount }))
	put("counts.prefetch_s", avg(func(s fitStats) float64 { return s.prefetch }))
	put("counts.count_tables_s", avg(func(s fitStats) float64 { return s.countTables }))
	put("counts.self_s", self)
	put("counts.prefetch_calls", avg(func(s fitStats) float64 { return float64(s.prefetches) }))
	put("counts.scans", avg(func(s fitStats) float64 { return float64(s.provScans) }))
	put("counts.rows_read", avg(func(s fitStats) float64 { return float64(s.provRows) }))
	put("core.rest_s", rest)
	put("core.network_s", avg(func(s fitStats) float64 { return s.network }))
	put("core.network_iter_max_s", avg(func(s fitStats) float64 { return s.iterMax }))
	put("core.marginals_s", avg(func(s fitStats) float64 { return s.marginals }))
	put("core.sampling_s", mean(t.sampling.seconds))
	put("core.alloc_mb", avg(func(s fitStats) float64 { return s.allocMB }))
	put("core.gc_cycles", avg(func(s fitStats) float64 { return float64(s.gcCycles) }))
	put("marginal.index_hits", hits)
	put("marginal.index_misses", misses)
	put("marginal.index_hit_ratio", ratio)
	put("score.memo_entries", avg(func(s fitStats) float64 { return float64(s.memo) }))
	put("infer.factor_products", mean(products))
	put("infer.peak_cells_p50", median(peaks))
}
