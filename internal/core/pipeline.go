package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
	"privbayes/internal/score"
)

// Mode selects which pair of algorithms the pipeline runs.
type Mode int

const (
	// ModeBinary is the SIGMOD'14 variant: Algorithm 2 for network
	// learning over all-binary attributes with a single degree k chosen
	// by θ-usefulness, Algorithm 1 for distribution learning.
	ModeBinary Mode = iota
	// ModeGeneral is the TODS'17 variant: Algorithm 4 with
	// θ-usefulness domain-size caps and Algorithm 3 materializing all d
	// marginals. Required for non-binary attributes.
	ModeGeneral
)

// Options configures a PrivBayes run. Zero values do not select
// defaults — validate rejects a zero β or θ — so start from
// DefaultOptions, the paper's parameterization (β = 0.3, θ = 4,
// automatic k), and override fields from there.
type Options struct {
	// Epsilon is the total privacy budget ε = ε₁ + ε₂ (Theorem 3.2).
	Epsilon float64
	// Beta splits the budget: ε₁ = βε for network learning, ε₂ = (1−β)ε
	// for distribution learning (Section 3); must be in (0,1).
	// DefaultOptions uses 0.3 (Section 6.4).
	Beta float64
	// Theta is the usefulness threshold of Definition 4.7; must be
	// positive. DefaultOptions uses 4.
	Theta float64
	// K forces the network degree in ModeBinary; K < 0 (the default,
	// via DefaultOptions) selects k automatically by θ-usefulness.
	K int
	// MaxK, when positive, caps the automatically chosen degree in
	// ModeBinary. The paper reports multi-hour runs at k ≥ 6; the
	// experiment harness caps k to keep reproduction runs tractable
	// (experiment.Config.MaxK, 5 by default) while the library default
	// is uncapped.
	MaxK int
	// Score selects the exponential-mechanism score function. The
	// paper's recommendation: F in ModeBinary, R in ModeGeneral.
	Score score.Function
	// Mode selects the algorithm family.
	Mode Mode
	// UseHierarchy enables Algorithm 6 (taxonomy-tree generalization of
	// parents) in ModeGeneral — the paper's "Hierarchical" encoding.
	UseHierarchy bool
	// Scorer optionally supplies a pre-built (possibly shared) score
	// cache; it must compute the same score function over the fit's
	// rows: the same count source, or for FitContext an in-memory
	// source over the same dataset (score.NewScorerSized builds one).
	Scorer *score.Scorer
	// ScorerCacheSize bounds the score memo of the scorer Fit builds
	// when Scorer is nil: at most this many scored pairs are retained,
	// evicted least-recently-used. <= 0 (the default) keeps the memo
	// unbounded. Long-running services that fit many models against one
	// dataset set a bound so the memo cannot grow without limit;
	// eviction never changes results, only recompute cost.
	ScorerCacheSize int
	// InfiniteNetworkBudget removes the noise from network learning
	// (ε₁ = ∞, exponential mechanism becomes argmax): the BestNetwork
	// reference of Figure 11. Distribution learning still uses ε₂.
	InfiniteNetworkBudget bool
	// InfiniteMarginalBudget removes the Laplace noise from distribution
	// learning: the BestMarginal reference of Figure 11. Degree / cap
	// selection still uses the finite ε₂, so only the injected noise
	// differs.
	InfiniteMarginalBudget bool
	// Consistency applies the mutual-consistency post-processing of
	// footnote 1 (EnforceConsistency) to the noisy marginals before
	// conditionals are derived. Free of privacy cost; off by default to
	// match the paper's presented algorithm.
	Consistency bool
	// Parallelism bounds the worker pool used by candidate scoring,
	// marginal counting and synthetic sampling. <= 0 (the default)
	// selects GOMAXPROCS. It only sets speed: for a fixed seed, Fit and
	// Synthesize output is bit-identical at every parallelism, 1
	// included, on any machine — work units and RNG streams are indexed
	// by data position, never by worker, and counts are exact integers
	// scaled once by 1/n (see Model.SampleContext and marginal.MemorySource).
	Parallelism int
	// Progress, when set, receives one ProgressEvent per completed
	// pipeline unit (greedy iteration, materialized marginal). Events
	// are delivered serially — never from two goroutines at once — so
	// the callback needs no locking; it should return quickly.
	Progress func(ProgressEvent)
	// Rand is the randomness source; required.
	Rand *rand.Rand
}

// DefaultOptions returns the paper's default parameterization.
func DefaultOptions(epsilon float64, rng *rand.Rand) Options {
	return Options{Epsilon: epsilon, Beta: 0.3, Theta: 4, K: -1, Mode: ModeGeneral, Score: score.R, UseHierarchy: true, Rand: rng}
}

func (o *Options) validate(ds *dataset.Dataset) error {
	if o.Rand == nil {
		return errors.New("core: Options.Rand is required")
	}
	if !positiveFinite(o.Epsilon) && !(o.InfiniteNetworkBudget && o.InfiniteMarginalBudget) {
		return fmt.Errorf("core: epsilon must be positive and finite, got %g", o.Epsilon)
	}
	if !(o.Beta > 0 && o.Beta < 1) {
		return fmt.Errorf("core: beta must be in (0,1), got %g", o.Beta)
	}
	// Every mechanism call needs a positive share: a subnormal ε can round
	// a greedy iteration's βε/(d−1), or (1−β)ε, to zero.
	if !o.InfiniteNetworkBudget && !(o.Beta*o.Epsilon/float64(max(ds.D()-1, 1)) > 0) ||
		!o.InfiniteMarginalBudget && !((1-o.Beta)*o.Epsilon > 0) {
		return fmt.Errorf("core: epsilon %g leaves a mechanism no budget at beta %g", o.Epsilon, o.Beta)
	}
	if !positiveFinite(o.Theta) {
		return fmt.Errorf("core: theta must be positive and finite, got %g", o.Theta)
	}
	if o.Mode == ModeBinary {
		for i := 0; i < ds.D(); i++ {
			if ds.Attr(i).Size() != 2 {
				return fmt.Errorf("core: ModeBinary requires binary attributes; %s has %d values", ds.Attr(i).Name, ds.Attr(i).Size())
			}
		}
	}
	if o.Mode == ModeGeneral && o.Score == score.F {
		return errors.New("core: score F is not computable on general domains (Theorem 5.1); use R or MI")
	}
	return nil
}

// Fit runs the first two phases of PrivBayes — private network learning
// and private distribution learning — and returns a model from which any
// number of synthetic tuples can be sampled without further privacy
// cost.
func Fit(ds *dataset.Dataset, opt Options) (*Model, error) {
	return FitContext(context.Background(), ds, opt)
}

// FitContext is Fit with cancellation: ctx is threaded through network
// learning (checked every greedy iteration and between candidate
// parent-set groups), marginal materialization (between AP-pair
// joints) and the worker pools underneath, so a cancelled fit stops
// promptly — within one scoring batch or one joint — releases its
// workers, and returns ctx.Err(). Cancellation never produces a
// partial model: the result is either complete or nil.
//
// The rows are read through a marginal.MemorySource counting at
// opt.Parallelism; the fit itself is FitCountsContext's.
func FitContext(ctx context.Context, ds *dataset.Dataset, opt Options) (*Model, error) {
	return fitModel(ctx, ds.Attrs(), marginal.NewMemorySource(ds, opt.Parallelism), opt)
}

// FitCountsContext runs the two-phase pipeline with every data access
// routed through a count source: structure search, sensitivities and
// table shapes need only the schema and row count (carried by a
// virtual dataset), and every joint the scorer or the conditional
// materialization needs is requested from cs as an exact integer count
// table. Integer counts are chunking-invariant and the float arithmetic
// after them is shared, so the model is byte-identical for every
// source over the same rows — FitContext's in-memory one included —
// for any seed and parallelism.
func FitCountsContext(ctx context.Context, attrs []dataset.Attribute, cs marginal.CountSource, opt Options) (*Model, error) {
	return fitModel(ctx, attrs, cs, opt)
}

func fitModel(ctx context.Context, attrs []dataset.Attribute, cs marginal.CountSource, opt Options) (*Model, error) {
	ds := dataset.NewVirtual(attrs, cs.Rows())
	if err := opt.validate(ds); err != nil {
		return nil, err
	}
	if ds.N() == 0 {
		return nil, errors.New("core: empty dataset")
	}
	// Sequential composition (Theorem 3.2): network learning spends
	// ε₁ = βε and distribution learning ε₂ = (1−β)ε, so the fit is ε-DP.
	// The paper resets β when network learning has no choice to make
	// (footnote 6); the split is kept, which changes behaviour only
	// immaterially.
	eps1 := opt.Beta * opt.Epsilon
	eps2 := (1 - opt.Beta) * opt.Epsilon
	if opt.InfiniteNetworkBudget {
		eps1 = math.Inf(1)
	}

	sc := opt.Scorer
	switch {
	case sc == nil:
		sc = score.NewScorerCounts(opt.Score, attrs, cs, opt.ScorerCacheSize)
	case sc.Fn != opt.Score:
		return nil, fmt.Errorf("core: supplied scorer computes %v, options ask for %v", sc.Fn, opt.Score)
	case !marginal.SameRows(sc.CountSource(), cs):
		return nil, errors.New("core: supplied scorer reads a different source than this fit")
	}

	// The mode picks Algorithm 2's candidates and a degree k for
	// Algorithm 1, or Algorithm 4's candidates and Algorithm 3, which is
	// Algorithm 1 at k = 0.
	m := &Model{Attrs: append([]dataset.Attribute(nil), ds.Attrs()...), Score: opt.Score, K: -1}
	k := 0
	var gen candidates
	switch opt.Mode {
	case ModeBinary:
		k = opt.K
		if k < 0 {
			k = ChooseK(ds.N(), ds.D(), eps2, opt.Theta)
			if opt.MaxK > 0 && k > opt.MaxK {
				k = opt.MaxK
			}
		}
		k = min(k, ds.D()-1)
		m.K = k
		gen = binaryCandidates(ds.D(), k)
	case ModeGeneral:
		gen = generalCandidates(ds, opt.Theta, eps2, opt.UseHierarchy, opt.Parallelism)
	default:
		return nil, fmt.Errorf("core: unknown mode %d", opt.Mode)
	}
	progress := newProgressSink(opt.Progress)
	net, err := greedyBayes(ctx, ds.D(), gen, eps1, sc, opt.Parallelism, opt.Rand, progress)
	if err != nil {
		return nil, err
	}
	m.Network = net
	conds, err := noisyConditionals(ctx, cs, net, k, eps2, opt, progress)
	if err != nil {
		return nil, err
	}
	m.Conds = conds
	if err := m.Network.Validate(ds.D()); err != nil {
		return nil, err
	}
	return m, nil
}

// positiveFinite reports whether x is a usable ε or θ: NaN and +Inf
// fail, as they do the accountant's charge check.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// RefitCountsContext re-learns only the distribution phase: it keeps
// the supplied network structure and materializes fresh noisy
// conditionals from the count source, spending the whole opt.Epsilon
// on distribution learning (there is no structure-learning charge, so
// Beta is ignored). This is the curator's incremental refit — with a
// counts.Store whose tables were maintained on ingest, no row is
// re-read at all. k is the binary-mode anchor degree the network was
// learned with; it is ignored in ModeGeneral, whose Algorithm 3 is
// Algorithm 1 at k = 0.
func RefitCountsContext(ctx context.Context, attrs []dataset.Attribute, cs marginal.CountSource, net Network, k int, opt Options) (*Model, error) {
	if opt.Rand == nil {
		return nil, errors.New("core: Options.Rand is required")
	}
	if !positiveFinite(opt.Epsilon) && !opt.InfiniteMarginalBudget {
		return nil, fmt.Errorf("core: epsilon must be positive and finite, got %g", opt.Epsilon)
	}
	if cs.Rows() == 0 {
		return nil, errors.New("core: empty dataset")
	}
	d := len(attrs)
	if err := net.Validate(d); err != nil {
		return nil, err
	}
	m := &Model{Attrs: append([]dataset.Attribute(nil), attrs...), Score: opt.Score, K: -1, Network: net}
	switch opt.Mode {
	case ModeBinary:
		if k < 0 || k > d-1 {
			return nil, fmt.Errorf("core: refit anchor degree %d outside [0, %d]", k, d-1)
		}
		m.K = k
	case ModeGeneral:
		k = 0
	default:
		return nil, fmt.Errorf("core: unknown mode %d", opt.Mode)
	}
	conds, err := noisyConditionals(ctx, cs, net, k, opt.Epsilon, opt, newProgressSink(opt.Progress))
	if err != nil {
		return nil, err
	}
	m.Conds = conds
	return m, nil
}

// Synthesize runs the full three-phase pipeline and returns a synthetic
// dataset of the same cardinality as the input (Section 3). Sampling
// honours opt.Parallelism (see Model.SampleContext).
func Synthesize(ds *dataset.Dataset, opt Options) (*dataset.Dataset, error) {
	return SynthesizeContext(context.Background(), ds, opt)
}

// SynthesizeContext is Synthesize with cancellation (see FitContext and
// Model.SampleContext) and sampling progress.
func SynthesizeContext(ctx context.Context, ds *dataset.Dataset, opt Options) (*dataset.Dataset, error) {
	m, err := FitContext(ctx, ds, opt)
	if err != nil {
		return nil, err
	}
	return m.sampleContext(ctx, ds.N(), opt.Rand, opt.Parallelism, newProgressSink(opt.Progress))
}
