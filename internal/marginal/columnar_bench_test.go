package marginal

import (
	"fmt"
	"math/rand"
	"testing"

	"privbayes/internal/dataset"
)

// Paired columnar-vs-rowmajor counting benchmarks: one greedy-iteration
// shaped workload — build the parent index for a fixed set of the first
// k attributes, then count every remaining attribute as a child — over
// binary (NLTCS-style) attributes at k ∈ {2, 3, 5} parents and
// d ∈ {8, 16, 32}. At k = 5 every joint has 64 cells, the popcount
// kernel's limit. CountColumnar runs the popcount kernel; CountRowMajor
// forces the row walk (code build + decode and count) on the same
// bit-packed dataset. cmd/benchjson pairs the matching sub-names into
// columnar_vs_rowmajor/k*/d* speedups in BENCH_scoring.json.

const benchCountRows = 1 << 16

// benchBinaryData builds an n×d all-binary dataset, the layout the
// 1-bit packing and popcount kernel are shaped around.
func benchBinaryData(n, d int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	attrs := make([]dataset.Attribute, d)
	for a := range attrs {
		attrs[a] = dataset.NewCategorical(fmt.Sprintf("a%d", a), []string{"0", "1"})
	}
	ds := dataset.NewWithCapacity(attrs, n)
	rec := make([]uint16, d)
	for r := 0; r < n; r++ {
		for c := 0; c < d; c++ {
			rec[c] = uint16(rng.Intn(2))
		}
		ds.Append(rec)
	}
	return ds
}

func benchCountChildren(b *testing.B, k, d int, rowMajor bool) {
	ds := benchBinaryData(benchCountRows, d, 42)
	parents := make([]Var, k)
	for a := range parents {
		parents[a] = Var{Attr: a}
	}
	children := make([]Var, 0, d-k)
	for a := k; a < d; a++ {
		children = append(children, Var{Attr: a})
	}
	old := disablePopcount
	disablePopcount = rowMajor
	defer func() { disablePopcount = old }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh source per iteration, as a fresh parent set in the
		// greedy search would be: the row-major path pays its code
		// build, the columnar path its mask builds.
		if _, err := NewMemorySource(ds, 1).CountTables(parents, children); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCountLevels(b *testing.B, rowMajor bool) {
	for _, k := range []int{2, 3, 5} {
		for _, d := range []int{8, 16, 32} {
			b.Run(fmt.Sprintf("k%d/d%d", k, d), func(b *testing.B) { benchCountChildren(b, k, d, rowMajor) })
		}
	}
}

func BenchmarkCountColumnar(b *testing.B) { benchCountLevels(b, false) }

func BenchmarkCountRowMajor(b *testing.B) { benchCountLevels(b, true) }
