package curator

// Benchmarks behind `make bench-json` (BENCH_curator.json):
//
//   - BenchmarkCuratorIngest: acknowledged (fsynced) append throughput
//     in rows/s through the full Append path — encode, WAL append,
//     count-store accumulate;
//   - BenchmarkFitInMemory and BenchmarkFitScanner: the same fit from
//     materialized columns and from one decode of a spooled CSV. They
//     are recorded unpaired: the in-memory fit takes milliseconds at
//     this size, so their ratio misstates the out-of-core gap, which
//     perfbench's fit-outofcore and fit-binary workloads measure;
//   - BenchmarkRefitIncremental vs BenchmarkRefitCold: what the
//     maintained count store buys — an incremental refit redraws from
//     already-aggregated sufficient statistics, a cold refit pays the
//     full log rescan.
//
// cmd/benchjson pairs the refit families into the headline ratio
// refit_cold_vs_incremental.

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"privbayes"
	"privbayes/internal/core"
	"privbayes/internal/dataset"
)

// writeCSVFile spools a dataset to a CSV file for the scanner benches.
func writeCSVFile(path string, ds *dataset.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := ds.WriteCSV(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

const benchRows = 50_000

func benchAttrs() []dataset.Attribute {
	attrs := make([]dataset.Attribute, 8)
	for i := range attrs {
		attrs[i] = dataset.NewCategorical(fmt.Sprintf("a%d", i), []string{"0", "1"})
	}
	return attrs
}

func benchData(n int) *dataset.Dataset {
	attrs := benchAttrs()
	rng := rand.New(rand.NewSource(17))
	ds := dataset.NewWithCapacity(attrs, n)
	rec := make([]uint16, len(attrs))
	for i := 0; i < n; i++ {
		rec[0] = uint16(rng.Intn(2))
		for c := 1; c < len(rec); c++ {
			rec[c] = rec[c-1]
			if rng.Float64() < 0.2 {
				rec[c] = 1 - rec[c]
			}
		}
		ds.Append(rec)
	}
	return ds
}

func BenchmarkCuratorIngest(b *testing.B) {
	for _, batchRows := range []int{1000} {
		b.Run(fmt.Sprintf("batch=%d", batchRows), func(b *testing.B) {
			cur, err := New(Config{Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer cur.Close()
			attrs := benchAttrs()
			if err := cur.Create("bench", attrs); err != nil {
				b.Fatal(err)
			}
			batch := benchData(batchRows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cur.Append("bench", fmt.Sprintf("k%d", i), batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*batchRows)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

func benchFitOpts() []privbayes.Option {
	return []privbayes.Option{
		privbayes.WithEpsilon(1), privbayes.WithSeed(7),
		privbayes.WithDegree(2), privbayes.WithParallelism(2),
	}
}

func BenchmarkFitInMemory(b *testing.B) {
	b.Run(fmt.Sprintf("rows=%d", benchRows), func(b *testing.B) {
		ds := benchData(benchRows)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := privbayes.Fit(context.Background(), ds, benchFitOpts()...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFitScanner(b *testing.B) {
	b.Run(fmt.Sprintf("rows=%d", benchRows), func(b *testing.B) {
		ds := benchData(benchRows)
		path := filepath.Join(b.TempDir(), "bench.csv")
		if err := writeCSVFile(path, ds); err != nil {
			b.Fatal(err)
		}
		src := privbayes.CSVSource(path, ds.Attrs(), 8192)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := privbayes.FitScanner(context.Background(), src, benchFitOpts()...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchLog materializes a curator row log holding ds, returning its
// path — the input of a cold refit.
func benchLog(b *testing.B, ds *dataset.Dataset) string {
	b.Helper()
	dir := b.TempDir()
	cur, err := New(Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if err := cur.Create("bench", ds.Attrs()); err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < ds.N(); lo += MaxBatchRows {
		hi := lo + MaxBatchRows
		if hi > ds.N() {
			hi = ds.N()
		}
		if _, err := cur.Append("bench", "", ds.Slice(lo, hi)); err != nil {
			b.Fatal(err)
		}
	}
	if err := cur.Close(); err != nil {
		b.Fatal(err)
	}
	return filepath.Join(dir, "bench.rows")
}

func BenchmarkRefitCold(b *testing.B) {
	b.Run(fmt.Sprintf("rows=%d", benchRows), func(b *testing.B) {
		ds := benchData(benchRows)
		path := benchLog(b, ds)
		src := rowLogSource(nil, path, ds.Attrs(), 8192, int64(ds.N()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := privbayes.FitScanner(context.Background(), src, benchFitOpts()...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkRefitIncremental(b *testing.B) {
	b.Run(fmt.Sprintf("rows=%d", benchRows), func(b *testing.B) {
		ds := benchData(benchRows)
		m0, err := privbayes.Fit(context.Background(), ds, benchFitOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		st, err := registeredStore(ds.Attrs(), m0.Network)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Accumulate(ds); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, err := core.RefitCountsContext(context.Background(), ds.Attrs(), st,
				m0.Network, m0.K, core.Options{
					Epsilon:     1,
					Mode:        core.ModeBinary,
					Score:       m0.Score,
					Parallelism: 2,
					Rand:        rand.New(rand.NewSource(int64(i))),
				})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
