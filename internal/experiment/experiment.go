// Package experiment regenerates every evaluation table and figure of
// the paper (Section 6). Each figure is a set of panels; each panel is a
// set of series; each series is a curve of (x, metric) points averaged
// over repeated runs with distinct seeds. Results stream to a writer as
// CSV rows: figure,panel,series,x,value.
package experiment

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"privbayes/internal/core"
	"privbayes/internal/data"
	"privbayes/internal/dataset"
	"privbayes/internal/score"
)

// EpsGrid is the paper's privacy-budget grid.
var EpsGrid = []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.6}

// BetaGrid is the β grid of Figure 9.
var BetaGrid = []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}

// ThetaGrid is the θ grid of Figure 10.
var ThetaGrid = []float64{0.5, 1, 2, 3, 4, 6, 8, 12}

// Config controls a reproduction run. The zero value is not usable; use
// DefaultConfig.
type Config struct {
	// Repeats averages each point over this many seeded runs. The paper
	// uses 100; the default keeps the harness interactive.
	Repeats int
	// N truncates every dataset to at most N rows (0 = the paper's full
	// cardinality from Table 5).
	N int
	// Eps overrides the ε grid when non-empty.
	Eps []float64
	// MaxQuerySubsets samples the query set Qα during evaluation when
	// the full set is larger (0 = evaluate every query, as the paper
	// does).
	MaxQuerySubsets int
	// MaxK caps the binary-mode network degree (see core.Options.MaxK).
	MaxK int
	// Heavy enables the full-domain baselines (Contingency, MWEM) on
	// ACS, whose 2^23-cell histograms dominate runtime.
	Heavy bool
	// Parallelism bounds the worker pool of every PrivBayes run in the
	// battery (see core.Options.Parallelism). <= 0 uses all cores; 1
	// forces the serial code paths.
	Parallelism int
	// Seed is the base seed; repeat r of any experiment derives its
	// generator from Seed and r, so runs are reproducible.
	Seed int64
	// Out, when non-nil, receives CSV rows as points are produced.
	Out io.Writer
}

// DefaultConfig returns the settings used by cmd/experiments.
func DefaultConfig() Config {
	return Config{
		Repeats:         3,
		MaxQuerySubsets: 400,
		MaxK:            5,
		Seed:            42,
	}
}

func (c Config) eps() []float64 {
	if len(c.Eps) > 0 {
		return c.Eps
	}
	return EpsGrid
}

func (c Config) rng(labels ...interface{}) *rand.Rand {
	h := int64(1469598103934665603)
	for _, l := range labels {
		for _, b := range fmt.Sprint(l) {
			h ^= int64(b)
			h *= 1099511628211
		}
	}
	return rand.New(rand.NewSource(c.Seed ^ h))
}

// Point is one measured value.
type Point struct {
	Figure string
	Panel  string
	Series string
	X      float64
	Value  float64
}

// Result collects the points of one figure run.
type Result struct {
	Figure string
	Points []Point
}

// WriteCSV writes all points as CSV with a header row.
func (r *Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "figure,panel,series,x,value"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%g,%.6f\n", p.Figure, p.Panel, p.Series, p.X, p.Value); err != nil {
			return err
		}
	}
	return nil
}

type collector struct {
	mu     sync.Mutex
	cfg    *Config
	figure string
	points []Point
}

func (c *collector) add(panel, series string, x, value float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.points = append(c.points, Point{Figure: c.figure, Panel: panel, Series: series, X: x, Value: value})
	if c.cfg.Out != nil {
		fmt.Fprintf(c.cfg.Out, "%s,%s,%s,%g,%.6f\n", c.figure, panel, series, x, value)
	}
}

// datasetCache avoids regenerating the (deterministic) synthetic source
// datasets for every panel.
var (
	dsMu    sync.Mutex
	dsCache = map[string]*dataset.Dataset{}
)

func sourceData(name string, n int) (*dataset.Dataset, error) {
	spec, ok := data.ByName(name)
	if !ok {
		return nil, fmt.Errorf("experiment: unknown dataset %q", name)
	}
	if n <= 0 || n > spec.N {
		n = spec.N
	}
	key := fmt.Sprintf("%s/%d", name, n)
	dsMu.Lock()
	defer dsMu.Unlock()
	if ds, ok := dsCache[key]; ok {
		return ds, nil
	}
	ds := spec.GenerateN(n)
	dsCache[key] = ds
	return ds, nil
}

// isBinary reports whether every attribute of the dataset is binary, in
// which case the SIGMOD'14 pipeline (ModeBinary + score F) is the
// paper's default.
func isBinary(ds *dataset.Dataset) bool {
	for i := 0; i < ds.D(); i++ {
		if ds.Attr(i).Size() != 2 {
			return false
		}
	}
	return true
}

// defaultOptions returns the paper's recommended PrivBayes configuration
// for a dataset: Binary-F on all-binary data, Hierarchical-R otherwise,
// with β = 0.3 and θ = 4 (Section 6.4).
func (c Config) defaultOptions(ds *dataset.Dataset, eps float64, rng *rand.Rand) core.Options {
	opt := core.Options{
		Epsilon: eps, Beta: 0.3, Theta: 4, K: -1, MaxK: c.MaxK,
		Parallelism: c.Parallelism, Rand: rng,
	}
	if isBinary(ds) {
		opt.Mode = core.ModeBinary
		opt.Score = score.F
	} else {
		opt.Mode = core.ModeGeneral
		opt.Score = score.R
		opt.UseHierarchy = true
	}
	return opt
}

// scorerCache shares score caches across repeats and ε values of one
// figure run; scores depend only on (dataset, function), not on the
// privacy budget. It also holds the run's train/test splits, so a
// scorer shared across ε values reads the very dataset each fit does.
type scorerCache struct {
	mu     sync.Mutex
	m      map[string]*score.Scorer
	splits map[string][2]*dataset.Dataset
}

func newScorerCache() *scorerCache {
	return &scorerCache{m: make(map[string]*score.Scorer), splits: make(map[string][2]*dataset.Dataset)}
}

// split returns repeat r's 80/20 train/test split of the named source
// dataset, drawing it on first use.
func (s *scorerCache) split(cfg Config, dsName string, ds *dataset.Dataset, r int) (train, test *dataset.Dataset) {
	key := fmt.Sprintf("%s/%d", dsName, r)
	s.mu.Lock()
	defer s.mu.Unlock()
	if tt, ok := s.splits[key]; ok {
		return tt[0], tt[1]
	}
	train, test = ds.Split(0.8, cfg.rng("split", dsName, r))
	s.splits[key] = [2]*dataset.Dataset{train, test}
	return train, test
}

func (s *scorerCache) get(fn score.Function, dsKey string, ds *dataset.Dataset) *score.Scorer {
	key := fmt.Sprintf("%v|%s", fn, dsKey)
	s.mu.Lock()
	defer s.mu.Unlock()
	if sc, ok := s.m[key]; ok {
		return sc
	}
	sc := score.NewScorer(fn, ds)
	s.m[key] = sc
	return sc
}

// Figures lists every runnable experiment id.
func Figures() []string {
	ids := []string{
		"4", "5", "6", "7", "8", "9", "10", "11",
		"12", "13", "14", "15", "16", "17", "18", "19",
		"table4", "table5",
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id ("4".."19", "table4", "table5").
func Run(id string, cfg Config) (*Result, error) {
	col := &collector{cfg: &cfg, figure: id}
	var err error
	switch id {
	case "4":
		err = runFigure4(cfg, col)
	case "5":
		err = runEncodingCounts(cfg, col, "Adult", []int{2, 3})
	case "6":
		err = runEncodingCounts(cfg, col, "BR2000", []int{2, 3})
	case "7":
		err = runEncodingSVM(cfg, col, "Adult")
	case "8":
		err = runEncodingSVM(cfg, col, "BR2000")
	case "9":
		err = runBetaSweep(cfg, col)
	case "10":
		err = runThetaSweep(cfg, col)
	case "11":
		err = runSourceOfError(cfg, col)
	case "12":
		err = runMarginalBaselines(cfg, col, "NLTCS", []int{3, 4})
	case "13":
		err = runMarginalBaselines(cfg, col, "ACS", []int{3, 4})
	case "14":
		err = runMarginalBaselines(cfg, col, "Adult", []int{2, 3})
	case "15":
		err = runMarginalBaselines(cfg, col, "BR2000", []int{2, 3})
	case "16":
		err = runSVMBaselines(cfg, col, "NLTCS")
	case "17":
		err = runSVMBaselines(cfg, col, "ACS")
	case "18":
		err = runSVMBaselines(cfg, col, "Adult")
	case "19":
		err = runSVMBaselines(cfg, col, "BR2000")
	case "table4":
		err = runTable4(cfg, col)
	case "table5":
		err = runTable5(cfg, col)
	default:
		return nil, fmt.Errorf("experiment: unknown figure %q (known: %v)", id, Figures())
	}
	if err != nil {
		return nil, err
	}
	return &Result{Figure: id, Points: col.points}, nil
}
