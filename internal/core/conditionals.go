package core

import (
	"context"
	"fmt"
	"math/rand"

	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
	"privbayes/internal/parallel"
)

// NoisyConditionalsBinary implements Algorithm 1: for pairs i ∈ [k+1, d]
// (0-indexed [k, d)) it materializes the (k+1)-dimensional joint
// Pr[Xᵢ, Πᵢ], perturbs it with Laplace(2(d−k)/(n·ε₂)) noise, clamps and
// normalizes, and derives the conditional. The first k conditionals are
// derived from the noisy joint of pair k+1 at no extra privacy cost,
// relying on the chain structure GreedyBayesBinary guarantees
// (Xᵢ ∈ Π_{k+1} and Πᵢ ⊂ Π_{k+1} for i ≤ k).
//
// noNoise skips the Laplace step, which the harness uses for the
// BestMarginal reference of Figure 11. consistent additionally applies
// the mutual-consistency post-processing of EnforceConsistency to the
// noised joints before deriving conditionals (footnote 1 of the paper).
//
// The d−k joints are counted from the dataset's in-memory source,
// fanned out across up to `parallelism` workers, both across tables and
// within each table's counting; Laplace noise is then injected serially
// in pair order from rng. The result is bit-identical at every
// parallelism other than 1 for a fixed seed (exact counts make the
// joints worker-count independent); parallelism 1 reproduces the
// pre-engine serial accumulation byte for byte.
func NoisyConditionalsBinary(ds *dataset.Dataset, net Network, k int, eps2 float64, noNoise, consistent bool, parallelism int, rng *rand.Rand) ([]*marginal.Conditional, error) {
	return noisyConditionalsBinary(context.Background(), marginal.NewMemorySource(ds, parallelism), net, k, eps2, noNoise, consistent, parallelism, rng, nil)
}

func noisyConditionalsBinary(ctx context.Context, cs marginal.CountSource, net Network, k int, eps2 float64, noNoise, consistent bool, parallelism int, rng *rand.Rand, progress *progressSink) ([]*marginal.Conditional, error) {
	d := len(net.Pairs)
	conds := make([]*marginal.Conditional, d)
	if d == 0 {
		return conds, nil
	}
	if k >= d {
		k = d - 1
	}
	scale := 2 * float64(d-k) / (float64(cs.Rows()) * eps2)
	joints, err := noisyPairJoints(ctx, cs, net.Pairs[k:], scale, noNoise, consistent, parallelism, rng, progress)
	if err != nil {
		return nil, err
	}
	// The noisy joint of pair k+1 (index k) anchors the derivation of
	// the head conditionals.
	anchor := joints[0]
	for i := k; i < d; i++ {
		conds[i] = marginal.ConditionalFromJoint(joints[i-k])
	}
	for i := 0; i < k; i++ {
		pair := net.Pairs[i]
		sub, err := projectOnto(anchor, pair)
		if err != nil {
			return nil, err
		}
		conds[i] = marginal.ConditionalFromJoint(sub)
	}
	return conds, nil
}

// noisyPairJoints runs the marginals phase over pairs: it opens the phase,
// prefetches every joint in one pass when the source can batch, counts
// each joint across up to parallelism workers, then perturbs them
// serially in pair order with Laplace(scale) noise, clamps and
// normalizes, and optionally makes them mutually consistent.
func noisyPairJoints(ctx context.Context, cs marginal.CountSource, pairs []APPair, scale float64, noNoise, consistent bool, parallelism int, rng *rand.Rand, progress *progressSink) ([]*marginal.Table, error) {
	total := len(pairs)
	progress.start(PhaseMarginals, total)
	if err := prefetchPairCounts(ctx, cs, pairs); err != nil {
		return nil, err
	}
	// Parallelism 1 normalizes through one shared Ladder, replaying the
	// serial Materialize accumulation byte for byte; any other setting
	// scales the exact counts by 1/n once.
	var lad *marginal.Ladder
	if parallelism == 1 {
		lad = marginal.NewLadder(cs.Rows())
	}
	jointErrs := make([]error, total)
	joints, err := parallel.MapCtx(ctx, parallel.Workers(parallelism), total, func(i int) *marginal.Table {
		t, err := materializeJoint(cs, pairs[i], lad)
		if err != nil {
			jointErrs[i] = err
			return nil
		}
		progress.unit(PhaseMarginals, total)
		return t
	})
	if err != nil {
		return nil, err
	}
	for _, err := range jointErrs {
		if err != nil {
			return nil, err
		}
	}
	for _, joint := range joints {
		if !noNoise {
			joint.AddLaplace(rng, scale)
		}
		joint.ClampNormalize()
	}
	if consistent && !noNoise {
		EnforceConsistency(joints, 0)
	}
	return joints, nil
}

// materializeJoint produces the empirical joint Pr[Π, X] of one AP pair
// from its exact counts: through lad when one is given, else by one
// 1/n scale.
func materializeJoint(cs marginal.CountSource, pair APPair, lad *marginal.Ladder) (*marginal.Table, error) {
	ts, err := cs.CountTables(pair.Parents, []marginal.Var{pair.X})
	if err != nil {
		return nil, err
	}
	t := ts[0]
	if lad != nil {
		lad.Apply(t)
	} else {
		t.Scale(1 / float64(cs.Rows()))
	}
	return t, nil
}

// prefetchPairCounts batches the AP pairs' joints into one count-source
// pass when the source supports it — one scan covers the whole
// distribution-learning phase of an out-of-core fit.
func prefetchPairCounts(ctx context.Context, cs marginal.CountSource, pairs []APPair) error {
	bcs, ok := cs.(marginal.BatchCountSource)
	if !ok {
		return nil
	}
	reqs := make([]marginal.CountRequest, len(pairs))
	for i, pair := range pairs {
		reqs[i] = marginal.CountRequest{Parents: pair.Parents, Children: []marginal.Var{pair.X}}
	}
	return bcs.Prefetch(ctx, reqs)
}

// projectOnto marginalizes the anchor joint onto [pair.Parents...,
// pair.X], verifying the containment property Algorithm 1 relies on.
func projectOnto(anchor *marginal.Table, pair APPair) (*marginal.Table, error) {
	want := pair.Vars()
	for _, v := range want {
		found := false
		for _, av := range anchor.Vars {
			if av == v {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: pair (%v | %v) not derivable from anchor marginal %v", pair.X, pair.Parents, anchor.Vars)
		}
	}
	return anchor.MarginalizeOnto(want), nil
}

// NoisyConditionalsGeneral implements Algorithm 3: every one of the d
// AP-pair joints is materialized and perturbed with Laplace(2d/(n·ε₂))
// noise, then clamped, normalized and conditioned. Counting fans out
// across up to `parallelism` workers, across tables and within each
// table; the noise draws stay serial in pair order, keeping the output
// bit-identical at every parallelism other than 1 (see
// NoisyConditionalsBinary for the contract).
func NoisyConditionalsGeneral(ds *dataset.Dataset, net Network, eps2 float64, noNoise, consistent bool, parallelism int, rng *rand.Rand) []*marginal.Conditional {
	conds, err := noisyConditionalsGeneral(context.Background(), marginal.NewMemorySource(ds, parallelism), net, eps2, noNoise, consistent, parallelism, rng, nil)
	if err != nil {
		// Unreachable for θ-useful networks: the background context
		// never ends, and their parent sets never overflow.
		panic(err)
	}
	return conds
}

func noisyConditionalsGeneral(ctx context.Context, cs marginal.CountSource, net Network, eps2 float64, noNoise, consistent bool, parallelism int, rng *rand.Rand, progress *progressSink) ([]*marginal.Conditional, error) {
	d := len(net.Pairs)
	scale := 2 * float64(d) / (float64(cs.Rows()) * eps2)
	joints, err := noisyPairJoints(ctx, cs, net.Pairs, scale, noNoise, consistent, parallelism, rng, progress)
	if err != nil {
		return nil, err
	}
	conds := make([]*marginal.Conditional, d)
	for i, joint := range joints {
		conds[i] = marginal.ConditionalFromJoint(joint)
	}
	return conds, nil
}
