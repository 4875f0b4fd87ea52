package privbayes

import (
	"errors"
	"fmt"
	"math"

	"privbayes/internal/core"
	"privbayes/internal/score"
)

// Default parameterization of the v2 API, from the paper's
// recommendations (Section 6.4). Unlike the v1 Options struct — which
// inferred "unset" from zero values — the v2 option set starts from
// these explicit defaults and every With* option overrides exactly one
// of them.
const (
	// DefaultBeta splits the budget between network learning (βε) and
	// distribution learning ((1−β)ε).
	DefaultBeta = 0.3
	// DefaultTheta is the θ-usefulness threshold steering model
	// capacity.
	DefaultTheta = 4.0
)

// ScoreFunction selects the exponential-mechanism score. The zero
// value ScoreAuto picks the paper's recommendation for the data: F for
// all-binary schemas, R otherwise.
type ScoreFunction int

const (
	// ScoreAuto selects F on all-binary data and R otherwise.
	ScoreAuto ScoreFunction = iota
	// ScoreMI is raw mutual information I (the baseline).
	ScoreMI
	// ScoreF is the binary-domain surrogate of Section 4.3.
	ScoreF
	// ScoreR is the general-domain surrogate of Section 5.3.
	ScoreR
)

// String names the function as in the paper.
func (f ScoreFunction) String() string {
	switch f {
	case ScoreAuto:
		return "auto"
	case ScoreMI:
		return "I"
	case ScoreF:
		return "F"
	case ScoreR:
		return "R"
	default:
		return fmt.Sprintf("ScoreFunction(%d)", int(f))
	}
}

// fn maps the facade enum onto the internal score function.
func (f ScoreFunction) fn() (score.Function, error) {
	switch f {
	case ScoreMI:
		return score.MI, nil
	case ScoreF:
		return score.F, nil
	case ScoreR:
		return score.R, nil
	default:
		return 0, fmt.Errorf("privbayes: invalid score function %v", f)
	}
}

// Source is a seed-based randomness source: an immutable value from
// which every run derives a fresh deterministic generator, replacing
// the shared-mutable *rand.Rand of the v1 API. Build one with
// NewSource for replayable runs or CryptoSource for a fresh
// cryptographic seed whose Seed() you can log; the zero Source means
// "draw a cryptographic seed for me".
type Source = core.Source

// NewSource returns a deterministic Source for the given seed.
func NewSource(seed int64) Source { return core.NewSource(seed) }

// CryptoSource returns a Source freshly seeded from the operating
// system's cryptographic randomness. Record Seed() to replay the run.
func CryptoSource() Source { return core.CryptoSource() }

// Progress is one pipeline progress event: Done of Total units of
// Phase have completed. Callbacks receive events serially and should
// return quickly.
type Progress = core.ProgressEvent

// Phase identifies a pipeline stage in a Progress event.
type Phase = core.Phase

// Pipeline phases reported through WithProgress.
const (
	PhaseNetwork   = core.PhaseNetwork
	PhaseMarginals = core.PhaseMarginals
	PhaseSampling  = core.PhaseSampling
)

// config is the resolved option set of one v2 run.
type config struct {
	epsilon     float64
	epsilonSet  bool
	beta        float64
	theta       float64
	score       ScoreFunction
	degree      int
	hierarchy   bool
	consistency bool
	parallelism int
	cacheSize   int
	source      Source
	progress    func(Progress)
}

// Option configures Fit, Synthesize, NewFitter and NewSession. Options
// apply left to right; later options override earlier ones.
type Option func(*config)

// WithEpsilon sets the total differential-privacy budget ε, which must
// be positive and finite. Required by every fitting entry point.
func WithEpsilon(epsilon float64) Option {
	return func(c *config) { c.epsilon = epsilon; c.epsilonSet = true }
}

// WithBeta sets the budget split β between network learning (βε) and
// distribution learning ((1−β)ε), in (0, 1). Default DefaultBeta.
func WithBeta(beta float64) Option {
	return func(c *config) { c.beta = beta }
}

// WithTheta sets the θ-usefulness threshold, which must be positive
// and finite. Default DefaultTheta.
func WithTheta(theta float64) Option {
	return func(c *config) { c.theta = theta }
}

// WithScore pins the exponential-mechanism score function. Default
// ScoreAuto (F on all-binary data, R otherwise).
func WithScore(f ScoreFunction) Option {
	return func(c *config) { c.score = f }
}

// WithDegree forces the network degree k on all-binary data; <= 0 (the
// default) selects k by θ-usefulness. Ignored on non-binary schemas,
// where θ-usefulness caps domain sizes instead of a single k.
func WithDegree(k int) Option {
	return func(c *config) { c.degree = k }
}

// WithHierarchy toggles taxonomy-tree generalization of parents
// (Algorithm 6) on non-binary schemas whose attributes define
// hierarchies. Default true — the paper's "Hierarchical" encoding.
func WithHierarchy(enabled bool) Option {
	return func(c *config) { c.hierarchy = enabled }
}

// WithConsistency toggles the mutual-consistency post-processing of
// the noisy marginals (footnote 1 of the paper); costs no privacy.
// Default false.
func WithConsistency(enabled bool) Option {
	return func(c *config) { c.consistency = enabled }
}

// WithParallelism bounds the worker pool for candidate scoring,
// marginal counting and sampling. <= 0 (the default) uses all CPU
// cores. It only sets speed: for a fixed seed, output is bit-identical
// at every parallelism, 1 included, on any machine.
func WithParallelism(p int) Option {
	return func(c *config) { c.parallelism = p }
}

// WithScorerCache bounds the score memo built during fitting to at
// most size scored (X, Π) pairs, evicted least-recently-used. <= 0
// (the default) keeps the memo unbounded. Eviction never changes
// results, only recompute cost.
func WithScorerCache(size int) Option {
	return func(c *config) { c.cacheSize = size }
}

// WithSource sets the randomness source. The default (zero) Source
// draws a fresh cryptographic seed per run; pass NewSource(seed) — or
// a CryptoSource whose Seed() you logged — for deterministic replay.
func WithSource(src Source) Option {
	return func(c *config) { c.source = src }
}

// WithSeed is shorthand for WithSource(NewSource(seed)).
func WithSeed(seed int64) Option { return WithSource(NewSource(seed)) }

// WithProgress registers a callback observing pipeline progress:
// PhaseNetwork per greedy iteration, PhaseMarginals per materialized
// joint, PhaseSampling per generated chunk (Done/Total in rows).
// Events arrive serially — never from two goroutines at once.
func WithProgress(fn func(Progress)) Option {
	return func(c *config) { c.progress = fn }
}

// resolve folds opts over the defaults.
func resolve(opts []Option) config {
	return config{beta: DefaultBeta, theta: DefaultTheta, hierarchy: true}.merge(opts)
}

// merge folds additional per-call opts over a fitter's resolved config.
func (c config) merge(opts []Option) config {
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// validate rejects option sets that cannot parameterize any run.
// Dataset-dependent validation (mode selection, score compatibility)
// happens in toCore.
func (c config) validate() error {
	if !c.epsilonSet {
		return errors.New("privbayes: WithEpsilon is required")
	}
	if !positiveFinite(c.epsilon) {
		return fmt.Errorf("privbayes: epsilon must be positive and finite, got %g", c.epsilon)
	}
	if !(c.beta > 0 && c.beta < 1) {
		return fmt.Errorf("privbayes: beta must be in (0,1), got %g", c.beta)
	}
	if !positiveFinite(c.theta) {
		return fmt.Errorf("privbayes: theta must be positive and finite, got %g", c.theta)
	}
	if c.score < ScoreAuto || c.score > ScoreR {
		return fmt.Errorf("privbayes: invalid score function %v", c.score)
	}
	return nil
}

// positiveFinite reports whether x is a usable ε or θ: NaN and +Inf
// fail, as they do the accountant's charge check.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// toCore maps the resolved config onto internal pipeline options for
// one dataset. The returned options carry a fresh generator derived
// from the config's source (drawing a cryptographic seed if unset), so
// concurrent runs from one config never share RNG state.
func (c config) toCore(ds *Dataset) (core.Options, error) {
	return c.toCoreAttrs(ds.Attrs())
}

// toCoreAttrs is toCore from a schema alone — mode selection and score
// defaults depend only on attribute domains, never on rows, which is
// what lets the scanner entry points parameterize a fit before any
// data has been read.
func (c config) toCoreAttrs(attrs []Attribute) (core.Options, error) {
	if err := c.validate(); err != nil {
		return core.Options{}, err
	}
	src := c.source
	if src.IsZero() {
		src = CryptoSource()
	}
	opt := core.Options{
		Epsilon:         c.epsilon,
		Beta:            c.beta,
		Theta:           c.theta,
		K:               -1,
		Consistency:     c.consistency,
		Parallelism:     c.parallelism,
		ScorerCacheSize: c.cacheSize,
		Progress:        c.progress,
		Rand:            src.Rand(),
	}
	binary := true
	for i := range attrs {
		if attrs[i].Size() != 2 {
			binary = false
			break
		}
	}
	if binary {
		opt.Mode = core.ModeBinary
		opt.Score = score.F
		if c.degree > 0 {
			opt.K = c.degree
		}
	} else {
		opt.Mode = core.ModeGeneral
		opt.Score = score.R
		opt.UseHierarchy = c.hierarchy
	}
	if c.score != ScoreAuto {
		fn, err := c.score.fn()
		if err != nil {
			return core.Options{}, err
		}
		opt.Score = fn
	}
	return opt, nil
}
