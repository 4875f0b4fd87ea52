package privbayes

import (
	"context"
	"fmt"
	"sync"

	"privbayes/internal/core"
	"privbayes/internal/marginal"
	"privbayes/internal/score"
)

// Fit learns a PrivBayes model from the dataset under ε-differential
// privacy — the context-first v2 entry point.
//
// ctx cancels the fit: network learning stops within one scoring
// batch, marginal materialization within one joint, worker pools drain
// without leaking goroutines, and the call returns ctx.Err(). WithSeed
// (or WithSource) makes the run deterministically replayable; without
// it a fresh cryptographic seed is drawn.
//
//	model, err := privbayes.Fit(ctx, ds,
//		privbayes.WithEpsilon(1.0),
//		privbayes.WithSeed(7),
//	)
func Fit(ctx context.Context, ds *Dataset, opts ...Option) (*Model, error) {
	opt, err := resolve(opts).toCore(ds)
	if err != nil {
		return nil, err
	}
	return core.FitContext(ctx, ds, opt)
}

// Synthesize fits a model and materializes a synthetic dataset with
// the same number of rows as the input; the combined release satisfies
// ε-differential privacy (Theorem 3.2 of the paper). For unbounded row
// counts or bounded memory, fit once and stream from the model instead
// (Model.Synthesize / Model.SynthesizeTo).
func Synthesize(ctx context.Context, ds *Dataset, opts ...Option) (*Dataset, error) {
	opt, err := resolve(opts).toCore(ds)
	if err != nil {
		return nil, err
	}
	return core.SynthesizeContext(ctx, ds, opt)
}

// Fitter is a reusable, immutable bundle of fitting options — build it
// once, fit many datasets. A Fitter is safe for concurrent use: it
// holds no mutable state, and each Fit derives its own generator from
// the configured source.
type Fitter struct {
	cfg config
}

// NewFitter validates the options and returns a Fitter. Options that
// depend on the dataset (score/schema compatibility) are checked at
// Fit time.
func NewFitter(opts ...Option) (*Fitter, error) {
	cfg := resolve(opts)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Fitter{cfg: cfg}, nil
}

// Fit learns a model from ds under the fitter's options; per-call
// opts override them (e.g. a per-run WithSeed or WithEpsilon).
func (f *Fitter) Fit(ctx context.Context, ds *Dataset, opts ...Option) (*Model, error) {
	opt, err := f.cfg.merge(opts).toCore(ds)
	if err != nil {
		return nil, err
	}
	return core.FitContext(ctx, ds, opt)
}

// Synthesize fits and samples ds.N() rows, like the package-level
// Synthesize, under the fitter's options plus per-call overrides.
func (f *Fitter) Synthesize(ctx context.Context, ds *Dataset, opts ...Option) (*Dataset, error) {
	opt, err := f.cfg.merge(opts).toCore(ds)
	if err != nil {
		return nil, err
	}
	return core.SynthesizeContext(ctx, ds, opt)
}

// Session binds a Fitter to one dataset for repeated fitting — the
// serving workload, where one sensitive table is fitted many times
// under different budgets, seeds or scores. The session shares one
// score cache per score function and parallelism across its fits:
// scores are pure functions of the data, so every fit after the first
// skips the scan-heavy candidate evaluations the cache already holds.
//
// A Session is safe for concurrent use; cache sharing is internally
// synchronized and never changes results, only recompute cost.
func (f *Fitter) Session(ds *Dataset) *Session {
	return &Session{cfg: f.cfg, ds: ds, scorers: map[scorerKey]*score.Scorer{}}
}

// NewSession is shorthand for NewFitter(opts...).Session(ds).
func NewSession(ds *Dataset, opts ...Option) (*Session, error) {
	f, err := NewFitter(opts...)
	if err != nil {
		return nil, err
	}
	return f.Session(ds), nil
}

// Session is a dataset-bound Fitter with shared score caches. See
// Fitter.Session.
type Session struct {
	cfg config
	ds  *Dataset

	mu      sync.Mutex
	scorers map[scorerKey]*score.Scorer
}

// scorerKey names a session scorer: its score function and the
// parallelism its source counts at.
type scorerKey struct {
	fn  score.Function
	par int
}

// Dataset returns the sensitive dataset the session fits.
func (s *Session) Dataset() *Dataset { return s.ds }

// Fit learns a model from the session's dataset; per-call opts
// override the session options. Each call is an independent ε-DP
// release — budget accounting across calls is the caller's concern
// (privbayesd meters it with a persistent ledger).
func (s *Session) Fit(ctx context.Context, opts ...Option) (*Model, error) {
	opt, err := s.cfg.merge(opts).toCore(s.ds)
	if err != nil {
		return nil, err
	}
	opt.Scorer = s.scorer(opt)
	return core.FitContext(ctx, s.ds, opt)
}

// Synthesize fits and samples n rows (n <= 0 means the dataset's row
// count) in one call under the session's options plus overrides.
func (s *Session) Synthesize(ctx context.Context, n int, opts ...Option) (*Dataset, error) {
	cfg := s.cfg.merge(opts)
	opt, err := cfg.toCore(s.ds)
	if err != nil {
		return nil, err
	}
	opt.Scorer = s.scorer(opt)
	m, err := core.FitContext(ctx, s.ds, opt)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		n = s.ds.N()
	}
	return m.SampleContextProgress(ctx, n, opt.Rand, opt.Parallelism, opt.Progress)
}

// scorer returns the session's shared scorer for the fit's score
// function and parallelism, creating it on first use over an in-memory
// source that counts at that parallelism. The first caller's cache
// bound wins; later differing bounds only affect their own recompute
// cost, never results.
func (s *Session) scorer(opt core.Options) *score.Scorer {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := scorerKey{opt.Score, opt.Parallelism}
	sc, ok := s.scorers[key]
	if !ok {
		sc = score.NewScorerCounts(opt.Score, s.ds.Attrs(), marginal.NewMemorySource(s.ds, opt.Parallelism), opt.ScorerCacheSize)
		s.scorers[key] = sc
	}
	return sc
}

// ModelScore reports which score function selected the model's
// network, as a facade enum (never ScoreAuto).
func ModelScore(m *Model) ScoreFunction {
	switch m.Score {
	case score.MI:
		return ScoreMI
	case score.F:
		return ScoreF
	case score.R:
		return ScoreR
	default:
		panic(fmt.Sprintf("privbayes: model carries unknown score function %d", int(m.Score)))
	}
}
