package core

import (
	"context"
	"math/rand"
	"sync"

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
// any machine: parallelism only sets speed. Rows are staged one
// StreamChunkRows burst at a time and appended to the output's
// columns, which are bit-packed like those of any other dataset.
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
	seeds := parallel.SplitSeeds(rng, parallel.Chunks(n, sampleChunk))
	out := dataset.NewWithCapacity(m.Attrs, n)
	staging := stagePool.Get().(*[]uint16)
	defer stagePool.Put(staging)
	cols := make([][]uint16, len(m.Attrs))
	// Each StreamChunkRows burst is drawn column-major into the staging
	// and appended to out's packed columns. StreamChunkRows is a multiple
	// of sampleChunk, so burst-local chunk c is global chunk first+c.
	for lo := 0; lo < n; lo += StreamChunkRows {
		rows := min(StreamChunkRows, n-lo)
		if cap(*staging) < len(cols)*rows {
			*staging = make([]uint16, len(cols)*rows)
		}
		for a := range cols {
			cols[a] = (*staging)[a*rows : (a+1)*rows : (a+1)*rows]
		}
		first := lo / sampleChunk
		if err := parallel.ForCtx(ctx, workers, parallel.Chunks(rows, sampleChunk), func(c int) {
			clo := c * sampleChunk
			chi := min(clo+sampleChunk, rows)
			m.sampleRange(cols, clo, chi, rand.New(rand.NewSource(seeds[first+c])))
			progress.add(PhaseSampling, chi-clo, n)
		}); err != nil {
			return nil, err
		}
		out.AppendColumns(cols)
	}
	return out, nil
}

// stagePool recycles sampling bursts' column-major code staging, at
// most StreamChunkRows codes per attribute.
var stagePool = sync.Pool{New: func() any { return new([]uint16) }}

// sampleRange fills rows [lo, hi) of the column-major cols by
// ancestral sampling from rng. The network orders every parent before
// its children, so a parent's code is already in place when a child
// reads it. Distinct ranges touch disjoint codes, so concurrent calls
// are race-free.
func (m *Model) sampleRange(cols [][]uint16, lo, hi int, rng *rand.Rand) {
	var parentCodes []int
	for r := lo; r < hi; r++ {
		for i, pair := range m.Network.Pairs {
			parentCodes = parentCodes[:0]
			for _, p := range pair.Parents {
				code := int(cols[p.Attr][r])
				if p.Level > 0 {
					code = m.Attrs[p.Attr].Generalize(p.Level, code)
				}
				parentCodes = append(parentCodes, code)
			}
			cols[pair.X.Attr][r] = uint16(m.Conds[i].SampleX(parentCodes, rng))
		}
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
