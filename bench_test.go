// Benchmarks: one per evaluation table and figure of the paper. Each
// benchmark executes the corresponding experiment at reduced scale
// (smaller n, one repeat, a two-point ε grid, sampled query subsets) so
// the full battery completes in minutes, and reports the headline metric
// of the figure via b.ReportMetric so regressions in accuracy — not just
// speed — show up in benchmark diffs. The cmd/experiments tool runs the
// same experiments at paper scale.
package privbayes

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"privbayes/internal/core"
	"privbayes/internal/data"
	"privbayes/internal/experiment"
	"privbayes/internal/marginal"
	"privbayes/internal/score"
)

func benchConfig() experiment.Config {
	return experiment.Config{
		Repeats:         1,
		N:               2000,
		Eps:             []float64{0.1, 0.8},
		MaxQuerySubsets: 60,
		MaxK:            3,
		Seed:            42,
	}
}

// runFigure executes one experiment id per benchmark iteration and
// reports the mean value of the given series at the largest ε.
func runFigure(b *testing.B, id, series string) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		var cnt int
		for _, p := range res.Points {
			if p.Series == series && p.X == 0.8 {
				sum += p.Value
				cnt++
			}
		}
		if cnt > 0 {
			b.ReportMetric(sum/float64(cnt), series+"@eps0.8")
		}
	}
}

func BenchmarkFigure4(b *testing.B)  { runFigure(b, "4", "F") }
func BenchmarkFigure5(b *testing.B)  { runFigure(b, "5", "Hierarchical-R") }
func BenchmarkFigure6(b *testing.B)  { runFigure(b, "6", "Hierarchical-R") }
func BenchmarkFigure7(b *testing.B)  { runFigure(b, "7", "Hierarchical-R") }
func BenchmarkFigure8(b *testing.B)  { runFigure(b, "8", "Hierarchical-R") }
func BenchmarkFigure11(b *testing.B) { runFigure(b, "11", "PrivBayes") }
func BenchmarkFigure12(b *testing.B) { runFigure(b, "12", "PrivBayes") }
func BenchmarkFigure13(b *testing.B) { runFigure(b, "13", "PrivBayes") }
func BenchmarkFigure14(b *testing.B) { runFigure(b, "14", "PrivBayes") }
func BenchmarkFigure15(b *testing.B) { runFigure(b, "15", "PrivBayes") }
func BenchmarkFigure16(b *testing.B) { runFigure(b, "16", "PrivBayes") }
func BenchmarkFigure17(b *testing.B) { runFigure(b, "17", "PrivBayes") }
func BenchmarkFigure18(b *testing.B) { runFigure(b, "18", "PrivBayes") }
func BenchmarkFigure19(b *testing.B) { runFigure(b, "19", "PrivBayes") }
func BenchmarkTable4(b *testing.B)   { runFigure(b, "table4", "S(R)") }
func BenchmarkTable5(b *testing.B)   { runFigure(b, "table5", "log2-domain") }

// Figures 9 and 10 sweep β and θ; report the value at the default
// parameter instead of an ε point.
func runSweep(b *testing.B, id string, x float64) {
	b.Helper()
	cfg := benchConfig()
	cfg.Eps = []float64{0.8}
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		var cnt int
		for _, p := range res.Points {
			if p.X == x {
				sum += p.Value
				cnt++
			}
		}
		if cnt > 0 {
			b.ReportMetric(sum/float64(cnt), fmt.Sprintf("mean@%g", x))
		}
	}
}

func BenchmarkFigure9(b *testing.B)  { runSweep(b, "9", 0.3) }
func BenchmarkFigure10(b *testing.B) { runSweep(b, "10", 4) }

// Micro-benchmarks of the pipeline's hot stages, useful for performance
// work independent of the figure harness.

func nltcsData(n int) *Dataset {
	spec, _ := data.ByName("NLTCS")
	return spec.GenerateN(n)
}

// BenchmarkScoreFunctions measures one uncached AP-pair evaluation (the
// inner loop of network learning) for each score function.
func BenchmarkScoreFunctions(b *testing.B) {
	ds := nltcsData(5000)
	parents := []marginal.Var{{Attr: 1}, {Attr: 2}, {Attr: 3}}
	for _, fn := range []score.Function{score.MI, score.F, score.R} {
		b.Run(fn.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc := score.NewScorer(fn, ds) // fresh cache: measure computation
				_ = sc.Score(marginal.Var{Attr: 0}, parents)
			}
		})
	}
}

// BenchmarkFit measures the full two-phase pipeline (network +
// distribution learning) on NLTCS-shaped data.
func BenchmarkFit(b *testing.B) {
	ds := nltcsData(5000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		_, err := core.Fit(ds, core.Options{
			Epsilon: 0.8, Beta: 0.3, Theta: 4, K: -1, MaxK: 3,
			Mode: core.ModeBinary, Score: score.F, Rand: rng,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSample measures ancestral sampling throughput.
func BenchmarkSample(b *testing.B) {
	ds := nltcsData(5000)
	rng := rand.New(rand.NewSource(2))
	m, err := core.Fit(ds, core.Options{
		Epsilon: 0.8, Beta: 0.3, Theta: 4, K: -1, MaxK: 3,
		Mode: core.ModeBinary, Score: score.F, Rand: rng,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Sample(1000, rng)
	}
}

// BenchmarkMaterialize measures marginal materialization, the hot loop
// shared by scoring, distribution learning and evaluation.
func BenchmarkMaterialize(b *testing.B) {
	ds := nltcsData(20000)
	vars := []marginal.Var{{Attr: 0}, {Attr: 1}, {Attr: 2}, {Attr: 3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		marginal.Materialize(ds, vars)
	}
}

// Serial-vs-parallel benchmarks for the execution engine
// (internal/parallel). Each pair runs the same work at Parallelism 1
// (the legacy serial code paths) and at 4 workers; on a >= 4 core
// machine the parallel marginal-counting and sampling variants target
// >= 2x throughput, while output stays deterministic for a fixed seed
// (see TestFitBitIdenticalAcrossParallelism and friends in
// internal/core).

// binaryChainData generates an n-row all-binary dataset of width d with
// chained correlations, for parametric-dimension pipeline benchmarks.
func binaryChainData(n, d int, seed int64) *Dataset {
	attrs := make([]Attribute, d)
	for i := range attrs {
		attrs[i] = NewCategorical(fmt.Sprintf("a%d", i), []string{"0", "1"})
	}
	ds := NewDataset(attrs)
	rng := rand.New(rand.NewSource(seed))
	rec := make([]uint16, d)
	for r := 0; r < n; r++ {
		rec[0] = uint16(rng.Intn(2))
		for c := 1; c < d; c++ {
			rec[c] = rec[c-1]
			if rng.Float64() < 0.2 {
				rec[c] = 1 - rec[c]
			}
		}
		ds.Append(rec)
	}
	return ds
}

var parallelGrid = []int{1, 4}

// BenchmarkFitParallel compares serial and 4-worker Fit across network
// widths. The parallel win comes from fanning candidate scoring and
// marginal materialization out; the fitted model is bit-identical.
func BenchmarkFitParallel(b *testing.B) {
	for _, d := range []int{8, 16, 32} {
		ds := binaryChainData(2000, d, int64(d))
		for _, par := range parallelGrid {
			b.Run(fmt.Sprintf("d=%d/workers=%d", d, par), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				for i := 0; i < b.N; i++ {
					_, err := core.Fit(ds, core.Options{
						Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2,
						Mode: core.ModeBinary, Score: score.F,
						Parallelism: par, Rand: rng,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSynthesizeParallel compares the full fit-and-sample pipeline
// serial vs 4 workers across widths.
func BenchmarkSynthesizeParallel(b *testing.B) {
	for _, d := range []int{8, 16, 32} {
		ds := binaryChainData(2000, d, int64(d))
		for _, par := range parallelGrid {
			b.Run(fmt.Sprintf("d=%d/workers=%d", d, par), func(b *testing.B) {
				rng := rand.New(rand.NewSource(2))
				for i := 0; i < b.N; i++ {
					_, err := core.Synthesize(ds, core.Options{
						Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2,
						Mode: core.ModeBinary, Score: score.F,
						Parallelism: par, Rand: rng,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSampleParallelWorkers measures chunked synthetic-tuple
// generation serial vs 4 workers, 50k rows per iteration.
func BenchmarkSampleParallelWorkers(b *testing.B) {
	ds := binaryChainData(5000, 16, 4)
	rng := rand.New(rand.NewSource(5))
	m, err := core.Fit(ds, core.Options{
		Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2,
		Mode: core.ModeBinary, Score: score.F, Rand: rng,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range parallelGrid {
		b.Run(fmt.Sprintf("workers=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.SampleP(50000, rng, par)
			}
		})
	}
}

// queryBenchDims is the dimension grid of the query-vs-scan pair; each
// width 1..4 marginal is benchmarked at every d.
var queryBenchDims = []int{8, 16, 32}

// queryScanRows is the synthetic-sample size of the scan baseline — the
// rows an analyst without the query engine would have to synthesize and
// scan to answer one marginal.
const queryScanRows = 10_000

// fitQueryBenchModel fits one chained binary model of width d for the
// query benchmarks (outside the timed loop).
func fitQueryBenchModel(b *testing.B, d int) *Model {
	b.Helper()
	ds := binaryChainData(4000, d, 7)
	rng := rand.New(rand.NewSource(9))
	m, err := core.Fit(ds, core.Options{
		Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2,
		Mode: core.ModeBinary, Score: score.F, Rand: rng,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkQuery measures exact marginal queries through the v2 query
// engine (Model.Query → variable elimination) over d ∈ {8, 16, 32}
// attributes at marginal widths 1..4. Pairs with
// BenchmarkSynthesizeThenScan; benchjson reports the per-configuration
// speedup as query_vs_scan/<sub> in BENCH_query.json.
func BenchmarkQuery(b *testing.B) {
	ctx := context.Background()
	for _, d := range queryBenchDims {
		m := fitQueryBenchModel(b, d)
		for width := 1; width <= 4 && width <= d; width++ {
			names := make([]string, width)
			for i := range names {
				names[i] = fmt.Sprintf("a%d", i)
			}
			b.Run(fmt.Sprintf("d=%d/width=%d", d, width), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := m.Query(ctx, Marginal(names...)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSynthesizeThenScan is the baseline the query engine
// replaces: answer the same marginal by sampling a queryScanRows-row
// synthetic dataset from the model and scanning it. Same grid and
// sub-benchmark names as BenchmarkQuery, so benchjson pairs them.
func BenchmarkSynthesizeThenScan(b *testing.B) {
	for _, d := range queryBenchDims {
		m := fitQueryBenchModel(b, d)
		rng := rand.New(rand.NewSource(11))
		for width := 1; width <= 4 && width <= d; width++ {
			vars := make([]marginal.Var, width)
			for i := range vars {
				vars[i] = marginal.Var{Attr: i}
			}
			b.Run(fmt.Sprintf("d=%d/width=%d", d, width), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					syn := m.SampleP(queryScanRows, rng, 2)
					marginal.Materialize(syn, vars)
				}
			})
		}
	}
}

// BenchmarkAblationInferenceVsSampling quantifies the Section 7
// extension implemented in core.Model.InferMarginal: answering a
// 2-way marginal directly from the model removes the sampling error of
// the released dataset. Reported metrics are the TVD of each strategy
// against the sensitive data (lower is better).
func BenchmarkAblationInferenceVsSampling(b *testing.B) {
	ds := nltcsData(8000)
	rng := rand.New(rand.NewSource(5))
	m, err := core.Fit(ds, core.Options{
		Epsilon: 0.8, Beta: 0.3, Theta: 4, K: -1, MaxK: 3,
		Mode: core.ModeBinary, Score: score.F, Rand: rng,
	})
	if err != nil {
		b.Fatal(err)
	}
	vars := []marginal.Var{{Attr: 0}, {Attr: 1}}
	truth := marginal.Materialize(ds, vars)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syn := m.Sample(ds.N(), rng)
		sampled := marginal.Materialize(syn, vars)
		inferred, err := m.InferMarginal([]int{0, 1}, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(marginal.TVD(truth, sampled), "tvd-sampled")
		b.ReportMetric(marginal.TVD(truth, inferred), "tvd-inferred")
	}
}
