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

// candidates generates the AP pairs one greedy iteration chooses from,
// in the scorer's pair type, given the attributes already in the
// network: v in insertion order, inV marking them. A generator never
// draws from the fit's RNG, and its ORDER is part of the determinism
// contract: dp.Exponential turns one uniform draw into an index by a
// cumulative scan, so reordering the candidates would change the
// selected pair for a fixed seed. Both generators emit children outer,
// parent sets inner; the scorer regroups by canonical parent set
// internally without disturbing that order.
type candidates func(ctx context.Context, v []int, inV []bool) ([]score.Pair, error)

// greedyBayes is private network learning, the greedy loop shared by
// Algorithms 2 and 4: it starts from one uniformly drawn attribute, and
// each of the d−1 iterations scores every candidate from gen and picks
// one with the exponential mechanism at budget ε₁/(d−1), using the
// scorer's sensitivity as scaling factor (Section 4.2). eps1 = +Inf
// degenerates to the non-private greedy algorithm (argmax), the
// BestNetwork reference of Figure 11.
//
// Scoring goes through the scorer's shared-scan batch engine across up
// to parallelism workers (<= 0 selects GOMAXPROCS). Scores are pure
// functions of the data and the one exponential-mechanism draw per
// iteration stays on rng, so the learned network is bit-identical at
// every parallelism for a fixed seed. ctx is checked every iteration
// and inside scoring, so a cancelled fit stops within one scoring batch
// and returns ctx.Err(); progress (optional) receives one PhaseNetwork
// event per selected pair.
func greedyBayes(ctx context.Context, d int, gen candidates, eps1 float64, sc *score.Scorer, parallelism int, rng *rand.Rand, progress *progressSink) (Network, error) {
	if d == 0 {
		return Network{}, nil
	}
	first := rng.Intn(d)
	net := Network{Pairs: []APPair{{X: marginal.Var{Attr: first}}}}
	v := []int{first}
	inV := make([]bool, d)
	inV[first] = true

	epsIter := math.Inf(1)
	if !math.IsInf(eps1, 1) && d > 1 {
		epsIter = eps1 / float64(d-1)
	}
	progress.start(PhaseNetwork, d-1)
	for len(v) < d {
		if err := ctx.Err(); err != nil {
			return Network{}, err
		}
		cand, err := gen(ctx, v, inV)
		if err != nil {
			return Network{}, err
		}
		scores, err := sc.ScoreBatchContext(ctx, parallelism, cand)
		if err != nil {
			return Network{}, err
		}
		chosen := APPair(cand[dp.Exponential(rng, scores, sc.Sensitivity(), epsIter)])
		net.Pairs = append(net.Pairs, chosen)
		v = append(v, chosen.X.Attr)
		inV[chosen.X.Attr] = true
		progress.emit(PhaseNetwork, len(v)-1, d-1)
	}
	return net, nil
}

// binaryCandidates is Algorithm 2's candidate set (Line 5): every
// attribute outside V, each with every subset of V of size min(k, |V|).
// This guarantees the chain property Algorithm 1 relies on: the first
// k+1 attributes form a chain with full parent sets, so Pr*[Xᵢ | Πᵢ]
// for i ≤ k can be derived from Pr*[X_{k+1}, Π_{k+1}] without extra
// budget (see noisyConditionals).
func binaryCandidates(d, k int) candidates {
	return func(_ context.Context, v []int, inV []bool) ([]score.Pair, error) {
		parentSets := combinations(v, min(k, len(v)))
		var cand []score.Pair
		for x := 0; x < d; x++ {
			if inV[x] {
				continue
			}
			xv := marginal.Var{Attr: x}
			for _, ps := range parentSets {
				cand = append(cand, score.Pair{X: xv, Parents: ps})
			}
		}
		return cand, nil
	}
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

// generalCandidates is Algorithm 4's candidate set over general
// (non-binary, optionally hierarchical) domains: each attribute X
// outside V with its maximal parent sets under the θ-usefulness
// domain-size cap n·ε₂/(2dθ|dom(X)|), found by Algorithm 5, or by
// Algorithm 6 when useHierarchy is set. When no parent set is eligible,
// X gets the empty parent set, so every attribute is modeled (Lines
// 7–8). The per-attribute searches fan out across up to parallelism
// workers with results kept in attribute order.
func generalCandidates(ds *dataset.Dataset, theta, eps2 float64, useHierarchy bool, parallelism int) candidates {
	d := ds.D()
	cap0 := GeneralDomainCap(ds.N(), d, eps2, theta)
	workers := parallel.Workers(parallelism)
	return func(ctx context.Context, v []int, inV []bool) ([]score.Pair, error) {
		var rest []int
		for x := 0; x < d; x++ {
			if !inV[x] {
				rest = append(rest, x)
			}
		}
		perX, err := parallel.MapCtx(ctx, workers, len(rest), func(i int) []score.Pair {
			xv := marginal.Var{Attr: rest[i]}
			tau := cap0 / float64(ds.Attr(rest[i]).Size())
			var tops [][]marginal.Var
			if useHierarchy {
				tops = score.MaximalParentSetsHierarchical(ds, v, tau)
			} else {
				tops = score.MaximalParentSets(ds, v, tau)
			}
			if len(tops) == 0 {
				return []score.Pair{{X: xv}}
			}
			out := make([]score.Pair, len(tops))
			for j, ps := range tops {
				out[j] = score.Pair{X: xv, Parents: append([]marginal.Var(nil), ps...)}
			}
			return out
		})
		if err != nil {
			return nil, err
		}
		var cand []score.Pair
		for _, c := range perX {
			cand = append(cand, c...)
		}
		return cand, nil
	}
}
