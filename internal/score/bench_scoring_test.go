package score

// Shared-scan scoring benchmarks over a (d, k) grid. Each iteration
// scores one greedy-iteration shaped batch — every remaining child
// crossed with every size-k subset of a (k+1)-attribute V, the
// candidate shape of Algorithm 2's early iterations where scoring cost
// peaks — on a fresh scorer, so timings measure the engine cold,
// without cross-iteration memo or index hits. `make bench-json`
// captures the series in BENCH_scoring.json.

import (
	"fmt"
	"testing"
)

const benchRows = 5000

func benchGrid(b *testing.B, run func(b *testing.B, sc *Scorer, pairs []Pair)) {
	b.Helper()
	for _, d := range []int{8, 16, 32} {
		for _, k := range []int{2, 3} {
			ds := wideBinaryData(benchRows, d, int64(7*d+k))
			pairs := greedyShapedPairs(d, k+1, k)
			b.Run(fmt.Sprintf("d=%d/k=%d", d, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					run(b, NewScorer(MI, ds), pairs)
				}
			})
		}
	}
}

// BenchmarkScoreBatchShared measures the shared-scan engine: the grid's
// binary joints fit the popcount kernel, so each parent set's children
// are counted and scored as one unit of work.
func BenchmarkScoreBatchShared(b *testing.B) {
	benchGrid(b, func(b *testing.B, sc *Scorer, pairs []Pair) {
		sc.ScoreBatch(1, pairs)
	})
}

// BenchmarkScoreBatchSharedWarm measures the steady-state cost once the
// index cache holds the batch's parent sets — the cross-iteration case.
func BenchmarkScoreBatchSharedWarm(b *testing.B) {
	ds := wideBinaryData(benchRows, 16, 113)
	pairs := greedyShapedPairs(16, 4, 3)
	sc := NewScorerSized(MI, ds, 1) // memo never hits; indexes stay warm
	sc.ScoreBatch(1, pairs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.ScoreBatch(1, pairs)
	}
}
