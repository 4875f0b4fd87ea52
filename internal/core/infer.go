package core

import (
	"context"
	"math/rand"

	"privbayes/internal/dataset"
	"privbayes/internal/infer"
	"privbayes/internal/parallel"
)

// sampleChunk is the row granularity of parallel sampling. The chunk
// geometry depends only on n, so the chunk index — and with it the
// chunk's RNG stream — is independent of the worker count.
const sampleChunk = 2048

// SampleP draws n synthetic tuples by ancestral sampling (Section 3,
// "Generation of synthetic data"): attributes are sampled in network
// order, so every parent is available — suitably generalized — before
// its children. Rows are drawn in fixed-size chunks fanned out across
// up to `parallelism` workers (<= 0 selects GOMAXPROCS; see
// parallel.Workers), each chunk from its own rand.Rand seeded by
// sequential draws from rng (the split-RNG scheme). Chunk geometry and
// seeds depend only on (n, seed) — never on the worker count — so for
// a fixed seed the output is bit-identical at every parallelism, on
// any machine: parallelism only sets speed.
func (m *Model) SampleP(n int, rng *rand.Rand, parallelism int) *dataset.Dataset {
	// The background context never ends, so there is no error.
	out, _ := m.sampleContext(context.Background(), n, rng, parallelism, nil)
	return out
}

// SampleContext is SampleP with cancellation: ctx is checked at every
// sample-chunk boundary (2048 rows), so a cancelled call stops within
// one chunk, drains its workers, and returns ctx.Err(). For an
// uncancelled context the output is byte-identical to SampleP at the
// same (n, rng state), at any parallelism.
func (m *Model) SampleContext(ctx context.Context, n int, rng *rand.Rand, parallelism int) (*dataset.Dataset, error) {
	return m.sampleContext(ctx, n, rng, parallelism, nil)
}

// SampleContextProgress is SampleContext with a progress callback:
// progress (optional) receives PhaseSampling events with Done/Total in
// rows, delivered serially.
func (m *Model) SampleContextProgress(ctx context.Context, n int, rng *rand.Rand, parallelism int, progress func(ProgressEvent)) (*dataset.Dataset, error) {
	return m.sampleContext(ctx, n, rng, parallelism, newProgressSink(progress))
}

func (m *Model) sampleContext(ctx context.Context, n int, rng *rand.Rand, parallelism int, progress *progressSink) (*dataset.Dataset, error) {
	progress.start(PhaseSampling, n)
	workers := parallel.Workers(parallelism)
	chunks := parallel.Chunks(n, sampleChunk)
	seeds := parallel.SplitSeeds(rng, chunks)
	out := dataset.NewWithLen(m.Attrs, n)
	if err := parallel.ForCtx(ctx, workers, chunks, func(c int) {
		lo := c * sampleChunk
		hi := min(lo+sampleChunk, n)
		m.sampleRange(out, lo, hi, rand.New(rand.NewSource(seeds[c])))
		progress.add(PhaseSampling, hi-lo, n)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// sampleRange fills rows [lo, hi) of out by ancestral sampling from rng.
// Distinct ranges touch disjoint row slots, so concurrent calls on one
// dataset are race-free.
func (m *Model) sampleRange(out *dataset.Dataset, lo, hi int, rng *rand.Rand) {
	d := len(m.Attrs)
	rec := make([]uint16, d)
	raw := make([]int, d) // raw sampled code per attribute
	var parentCodes []int
	for r := lo; r < hi; r++ {
		for i, pair := range m.Network.Pairs {
			cond := m.Conds[i]
			parentCodes = parentCodes[:0]
			for _, p := range pair.Parents {
				code := raw[p.Attr]
				if p.Level > 0 {
					code = m.Attrs[p.Attr].Generalize(p.Level, code)
				}
				parentCodes = append(parentCodes, code)
			}
			x := cond.SampleX(parentCodes, rng)
			raw[pair.X.Attr] = x
		}
		for a := 0; a < d; a++ {
			rec[a] = uint16(raw[a])
		}
		out.SetRecord(r, rec)
	}
}

// engine wraps the model's CPTs as an inference engine. Construction is
// O(d) slice wrapping, so per-query construction costs nanoseconds and
// keeps Model free of caching state (models are plain serializable
// values).
func (m *Model) engine() *infer.Engine {
	cpts := make([]infer.CPT, len(m.Network.Pairs))
	for i, pair := range m.Network.Pairs {
		parents := make([]infer.Parent, len(pair.Parents))
		for j, par := range pair.Parents {
			parents[j] = infer.Parent{Attr: par.Attr, Level: par.Level}
		}
		cpts[i] = infer.CPT{X: pair.X.Attr, Parents: parents, Cond: m.Conds[i]}
	}
	return infer.NewEngine(m.Attrs, cpts)
}

// DefaultInferenceCells caps the intermediate inference factor when no
// explicit bound is given (it equals infer.DefaultMaxCells).
const DefaultInferenceCells = infer.DefaultMaxCells
