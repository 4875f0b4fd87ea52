package core

import (
	"context"
	"fmt"

	"privbayes/internal/marginal"
	"privbayes/internal/parallel"
)

// noisyConditionals is private distribution learning: Algorithm 1 for a
// network of degree k, and Algorithm 3 as its k = 0 case. For pairs
// i ∈ [k+1, d] (0-indexed [k, d)) it counts the joint Pr[Xᵢ, Πᵢ],
// perturbs it with Laplace(2(d−k)/(n·ε₂)) noise, clamps and normalizes
// it, and derives the conditional. For k > 0 the first k conditionals
// are derived from the noisy joint of pair k+1 at no extra privacy
// cost, relying on the chain property of Algorithm 2's networks
// (Xᵢ ∈ Π_{k+1} and Πᵢ ⊂ Π_{k+1} for i ≤ k, see binaryCandidates).
// Callers bound k to [0, d−1].
//
// opt.InfiniteMarginalBudget skips the Laplace step (the BestMarginal
// reference of Figure 11). opt.Consistency applies the
// mutual-consistency post-processing of EnforceConsistency to the
// noised joints before conditionals are derived (footnote 1 of the
// paper).
//
// The d−k joints are counted across up to opt.Parallelism workers and
// scaled once by 1/n; the Laplace noise is then drawn from opt.Rand
// serially in pair order. Exact counts make the joints worker-count
// independent, so for a fixed seed the result is bit-identical at every
// parallelism.
func noisyConditionals(ctx context.Context, cs marginal.CountSource, net Network, k int, eps2 float64, opt Options, progress *progressSink) ([]*marginal.Conditional, error) {
	d := len(net.Pairs)
	conds := make([]*marginal.Conditional, d)
	if d == 0 {
		return conds, nil
	}
	pairs := net.Pairs[k:]
	progress.start(PhaseMarginals, len(pairs))
	jointErrs := make([]error, len(pairs))
	joints, err := parallel.MapCtx(ctx, parallel.Workers(opt.Parallelism), len(pairs), func(i int) *marginal.Table {
		t, err := materializeJoint(cs, pairs[i])
		if err != nil {
			jointErrs[i] = err
			return nil
		}
		progress.unit(PhaseMarginals, len(pairs))
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
	scale := 2 * float64(d-k) / (float64(cs.Rows()) * eps2)
	for _, joint := range joints {
		if !opt.InfiniteMarginalBudget {
			joint.AddLaplace(opt.Rand, scale)
		}
		joint.ClampNormalize()
	}
	if opt.Consistency && !opt.InfiniteMarginalBudget {
		EnforceConsistency(joints, 0)
	}
	for i, joint := range joints {
		conds[k+i] = marginal.ConditionalFromJoint(joint)
	}
	for i := 0; i < k; i++ {
		sub, err := projectOnto(joints[0], net.Pairs[i])
		if err != nil {
			return nil, err
		}
		conds[i] = marginal.ConditionalFromJoint(sub)
	}
	return conds, nil
}

// materializeJoint produces the empirical joint Pr[Π, X] of one AP pair:
// its exact counts scaled once by 1/n.
func materializeJoint(cs marginal.CountSource, pair APPair) (*marginal.Table, error) {
	ts, err := cs.CountTables(pair.Parents, []marginal.Var{pair.X})
	if err != nil {
		return nil, err
	}
	t := ts[0]
	t.Scale(1 / float64(cs.Rows()))
	return t, nil
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
