package workload

import (
	"context"
	"math/rand"

	"privbayes/internal/baseline"
	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
	"privbayes/internal/parallel"
)

// Evaluator scores marginal sources against a fixed real dataset for one
// query set Qα. It caches the ground-truth marginals, and can evaluate a
// uniform random sample of the query set when the full set is too large
// to re-materialize per method per run (the paper averages over all
// queries; sampling estimates the same mean).
type Evaluator struct {
	real    *dataset.Dataset
	Alpha   int
	Subsets [][]int
	truth   []*marginal.Table
}

// NewEvaluator prepares an evaluator. maxSubsets > 0 samples that many
// subsets of Qα without replacement (using rng); 0 keeps the full set.
// parallelism bounds the worker pool for ground-truth materialization
// (<= 0 uses all cores, 1 is serial; see parallel.Workers).
func NewEvaluator(real *dataset.Dataset, alpha, maxSubsets, parallelism int, rng *rand.Rand) *Evaluator {
	subsets := baseline.Subsets(real.D(), alpha)
	if maxSubsets > 0 && maxSubsets < len(subsets) {
		perm := rng.Perm(len(subsets))[:maxSubsets]
		picked := make([][]int, maxSubsets)
		for i, j := range perm {
			picked[i] = subsets[j]
		}
		subsets = picked
	}
	e := &Evaluator{real: real, Alpha: alpha, Subsets: subsets}
	// Ground-truth marginals are independent full passes over the real
	// data; fan them out, one serial materialization per subset, with
	// ordered reduction — bit-identical to the serial loop. Low-arity
	// subsets over bit-packed columns take Materialize's popcount fast
	// path (itself bit-identical to the serial row walk). The context is
	// never cancelled, so MapCtx returns no error.
	e.truth, _ = parallel.MapCtx(context.Background(), parallel.Workers(parallelism), len(subsets), func(i int) *marginal.Table {
		attrs := subsets[i]
		vars := make([]marginal.Var, len(attrs))
		for j, a := range attrs {
			vars[j] = marginal.Var{Attr: a}
		}
		return marginal.Materialize(real, vars)
	})
	return e
}

// AVDDataset evaluates a synthetic dataset directly: the dataset's
// empirical marginals answer the query set. This is the paper's
// synthetic-data evaluation path (and the quality gate's TVD metric) —
// equivalent to AVD over a baseline.Dataset source.
func (e *Evaluator) AVDDataset(ds *dataset.Dataset) float64 {
	return e.AVD(&baseline.Dataset{DS: ds})
}

// AVDExact evaluates an exact answerer — typically a fitted model's
// query engine — over the evaluator's query subsets: answer receives
// each subset's attribute indices and returns the model's marginal for
// it. Unlike AVDDataset, the answers carry no sampling error, so the
// returned distance measures model fidelity alone.
func (e *Evaluator) AVDExact(answer func(attrs []int) (*marginal.Table, error)) (float64, error) {
	if len(e.Subsets) == 0 {
		return 0, nil
	}
	var sum float64
	for i, attrs := range e.Subsets {
		t, err := answer(attrs)
		if err != nil {
			return 0, err
		}
		sum += marginal.TVD(e.truth[i], t)
	}
	return sum / float64(len(e.Subsets)), nil
}

// AVD returns the average total-variation distance of the source's
// answers over the evaluator's query subsets.
func (e *Evaluator) AVD(src baseline.MarginalSource) float64 {
	if len(e.Subsets) == 0 {
		return 0
	}
	var sum float64
	for i, attrs := range e.Subsets {
		sum += marginal.TVD(e.truth[i], src.Marginal(attrs))
	}
	return sum / float64(len(e.Subsets))
}
