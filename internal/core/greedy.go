package core

import (
	"context"
	"math"
	"math/rand"

	"privbayes/internal/dataset"
	"privbayes/internal/dp"
	"privbayes/internal/marginal"
	"privbayes/internal/parallel"
	"privbayes/internal/score"
)

// GreedyBayesBinary builds a k-degree Bayesian network with the
// differentially private variant of Algorithm 2: each iteration selects
// an AP pair from Ω with the exponential mechanism using ε₁/(d−1) budget
// and the scorer's sensitivity as scaling factor (Section 4.2). Passing
// eps1 = +Inf degenerates to the non-private greedy algorithm, which the
// harness uses for the NoPrivacy reference.
//
// The candidate parent sets at iteration i are the subsets of V with
// size min(k, |V|) (Line 5 of Algorithm 2), which guarantees the
// structural property needed by Algorithm 1: the first k+1 attributes
// form a chain with full parent sets, so Pr*[Xᵢ | Πᵢ] for i ≤ k can be
// derived from Pr*[X_{k+1}, Π_{k+1}] without extra budget.
//
// Candidate scoring — the dominant cost at realistic k — goes through
// the scorer's shared-scan batch engine: candidates are emitted with
// their C(|V|,k) parent sets intact so the engine groups them by parent
// set and asks the count source for all children of a group at once.
// Scoring fans out across up to `parallelism` workers (<= 0 selects
// GOMAXPROCS); scores are pure functions of the data and the single
// exponential-mechanism draw per iteration stays on rng, so the learned
// network is bit-identical at every parallelism for a fixed seed.
//
// The candidate ORDER (children outer, parent sets inner) is part of the
// determinism contract: dp.Exponential turns one uniform draw into an
// index by a cumulative scan, so reordering candidates would change the
// selected pair for a fixed seed. The engine regroups by canonical
// parent-set key internally without disturbing result order.
func GreedyBayesBinary(ds *dataset.Dataset, k int, eps1 float64, sc *score.Scorer, parallelism int, rng *rand.Rand) Network {
	net, err := GreedyBayesBinaryContext(context.Background(), ds, k, eps1, sc, parallelism, rng, nil)
	if err != nil {
		// Unreachable: the background context never ends.
		panic(err)
	}
	return net
}

// GreedyBayesBinaryContext is GreedyBayesBinary with cancellation and
// progress: ctx is checked every greedy iteration and inside candidate
// scoring, so a cancelled fit stops within one scoring batch and
// returns ctx.Err(); progress (optional) receives one PhaseNetwork
// event per selected AP pair.
func GreedyBayesBinaryContext(ctx context.Context, ds *dataset.Dataset, k int, eps1 float64, sc *score.Scorer, parallelism int, rng *rand.Rand, progress *progressSink) (Network, error) {
	d := ds.D()
	if d == 0 {
		return Network{}, nil
	}
	var net Network
	var v []int
	first := rng.Intn(d)
	net.Pairs = append(net.Pairs, APPair{X: marginal.Var{Attr: first}})
	v = append(v, first)

	epsIter := math.Inf(1)
	if !math.IsInf(eps1, 1) && d > 1 {
		epsIter = eps1 / float64(d-1)
	}
	inV := make([]bool, d)
	inV[first] = true

	progress.start(PhaseNetwork, d-1)
	for len(v) < d {
		if err := ctx.Err(); err != nil {
			return Network{}, err
		}
		size := k
		if len(v) < k {
			size = len(v)
		}
		parentSets := combinations(v, size)
		var cand []APPair
		for x := 0; x < d; x++ {
			if inV[x] {
				continue
			}
			xv := marginal.Var{Attr: x}
			for _, ps := range parentSets {
				cand = append(cand, APPair{X: xv, Parents: ps})
			}
		}
		scores, err := scoreCandidates(ctx, sc, cand, parallelism)
		if err != nil {
			return Network{}, err
		}
		pick := dp.Exponential(rng, scores, sc.Sensitivity(), epsIter)
		chosen := cand[pick]
		net.Pairs = append(net.Pairs, chosen)
		v = append(v, chosen.X.Attr)
		inV[chosen.X.Attr] = true
		progress.emit(PhaseNetwork, len(v)-1, d-1)
	}
	return net, nil
}

// combinations returns all subsets of v with exactly size elements, as
// parent-set variable lists at raw level. size = 0 yields the single
// empty set.
func combinations(v []int, size int) [][]marginal.Var {
	var out [][]marginal.Var
	set := make([]marginal.Var, 0, size)
	var rec func(start int)
	rec = func(start int) {
		if len(set) == size {
			out = append(out, append([]marginal.Var(nil), set...))
			return
		}
		// Prune when not enough elements remain.
		need := size - len(set)
		for i := start; i <= len(v)-need; i++ {
			set = append(set, marginal.Var{Attr: v[i]})
			rec(i + 1)
			set = set[:len(set)-1]
		}
	}
	rec(0)
	return out
}

// GreedyBayesGeneral builds a Bayesian network over general (non-binary,
// optionally hierarchical) domains with Algorithm 4: candidate parent
// sets for each remaining attribute X are its maximal parent sets under
// the θ-usefulness domain-size cap n·ε₂/(2dθ|dom(X)|), generated by
// Algorithm 5 (or Algorithm 6 when useHierarchy is set). When an
// attribute has no eligible parent set, it is offered with the empty
// parent set so every attribute is modeled (Lines 7-8).
//
// Per-attribute candidate generation (Algorithm 5/6) and candidate
// scoring both fan out across up to `parallelism` workers with ordered
// reduction, so the candidate list — and therefore the learned network,
// whose one exponential-mechanism draw per iteration stays on rng — is
// bit-identical at every parallelism for a fixed seed.
func GreedyBayesGeneral(ds *dataset.Dataset, theta, eps1, eps2 float64, useHierarchy bool, sc *score.Scorer, parallelism int, rng *rand.Rand) Network {
	net, err := GreedyBayesGeneralContext(context.Background(), ds, theta, eps1, eps2, useHierarchy, sc, parallelism, rng, nil)
	if err != nil {
		// Unreachable: the background context never ends.
		panic(err)
	}
	return net
}

// GreedyBayesGeneralContext is GreedyBayesGeneral with cancellation and
// progress, on the same contract as GreedyBayesBinaryContext.
func GreedyBayesGeneralContext(ctx context.Context, ds *dataset.Dataset, theta, eps1, eps2 float64, useHierarchy bool, sc *score.Scorer, parallelism int, rng *rand.Rand, progress *progressSink) (Network, error) {
	d := ds.D()
	if d == 0 {
		return Network{}, nil
	}
	n := ds.N()
	cap0 := GeneralDomainCap(n, d, eps2, theta)

	var net Network
	var v []int
	first := rng.Intn(d)
	net.Pairs = append(net.Pairs, APPair{X: marginal.Var{Attr: first}})
	v = append(v, first)

	epsIter := math.Inf(1)
	if !math.IsInf(eps1, 1) && d > 1 {
		epsIter = eps1 / float64(d-1)
	}
	inV := make([]bool, d)
	inV[first] = true

	workers := parallel.Workers(parallelism)
	progress.start(PhaseNetwork, d-1)
	for len(v) < d {
		var rest []int
		for x := 0; x < d; x++ {
			if !inV[x] {
				rest = append(rest, x)
			}
		}
		// Algorithm 5/6 search per remaining attribute, fanned out with
		// results kept in attribute order.
		perX, err := parallel.MapCtx(ctx, workers, len(rest), func(i int) []APPair {
			x := rest[i]
			xv := marginal.Var{Attr: x}
			tau := cap0 / float64(ds.Attr(x).Size())
			var tops [][]marginal.Var
			if useHierarchy {
				tops = score.MaximalParentSetsHierarchical(ds, v, tau)
			} else {
				tops = score.MaximalParentSets(ds, v, tau)
			}
			if len(tops) == 0 {
				// Even Pr[X] alone violates θ-usefulness; model X as
				// independent rather than dropping it.
				return []APPair{{X: xv}}
			}
			out := make([]APPair, 0, len(tops))
			for _, ps := range tops {
				parents := append([]marginal.Var(nil), ps...)
				out = append(out, APPair{X: xv, Parents: parents})
			}
			return out
		})
		if err != nil {
			return Network{}, err
		}
		var cand []APPair
		for _, c := range perX {
			cand = append(cand, c...)
		}
		scores, err := scoreCandidates(ctx, sc, cand, parallelism)
		if err != nil {
			return Network{}, err
		}
		pick := dp.Exponential(rng, scores, sc.Sensitivity(), epsIter)
		chosen := cand[pick]
		net.Pairs = append(net.Pairs, chosen)
		v = append(v, chosen.X.Attr)
		inV[chosen.X.Attr] = true
		progress.emit(PhaseNetwork, len(v)-1, d-1)
	}
	return net, nil
}

// scoreCandidates evaluates the candidate scores with the scorer's
// shared-scan batch engine, in candidate order. The engine groups the
// pairs by canonical parent set and counts each group in one source
// request; results come back in input order, bit-identical to
// per-candidate scoring, so the exponential-mechanism draw downstream
// sees the same score vector at every parallelism. A cancelled ctx
// aborts the batch between parent-set groups with ctx.Err().
func scoreCandidates(ctx context.Context, sc *score.Scorer, cand []APPair, parallelism int) ([]float64, error) {
	pairs := make([]score.Pair, len(cand))
	for i, c := range cand {
		pairs[i] = score.Pair{X: c.X, Parents: c.Parents}
	}
	return sc.ScoreBatchContext(ctx, parallelism, pairs)
}
