package marginal

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"privbayes/internal/dataset"
)

func randomData(n, d, domain int, seed int64) *dataset.Dataset {
	attrs := make([]dataset.Attribute, d)
	labels := make([]string, domain)
	for v := range labels {
		labels[v] = string(rune('0' + v))
	}
	for i := range attrs {
		attrs[i] = dataset.NewCategorical(string(rune('a'+i)), labels)
	}
	ds := dataset.New(attrs)
	rng := rand.New(rand.NewSource(seed))
	rec := make([]uint16, d)
	for r := 0; r < n; r++ {
		for c := range rec {
			rec[c] = uint16(rng.Intn(domain))
		}
		ds.Append(rec)
	}
	return ds
}

// TestMaterializeCountsPExact checks the in-memory source's chunked
// parallel row walk, and its popcount route, are bit-identical to the
// serial MaterializeCounts at every parallelism: counts are
// integer-valued, so per-worker accumulation merges exactly. The
// second dataset spans two count blocks, summed the same way.
func TestMaterializeCountsPExact(t *testing.T) {
	parents, child := []Var{{Attr: 0}, {Attr: 2}}, Var{Attr: 3}
	old := disablePopcount
	defer func() { disablePopcount = old }()
	for _, n := range []int{10000, countBlockRows + 1000} {
		ds := randomData(n, 4, 3, 1)
		want := MaterializeCounts(ds, []Var{parents[0], parents[1], child})
		for _, rowWalk := range []bool{true, false} {
			disablePopcount = rowWalk
			for _, par := range []int{1, 2, 3, 8, 32} {
				got, err := NewMemorySource(ds, par).CountTables(parents, []Var{child})
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.P {
					if got[0].P[i] != want.P[i] {
						t.Fatalf("%d rows, row walk %v, parallelism %d: cell %d = %g, want %g", n, rowWalk, par, i, got[0].P[i], want.P[i])
					}
				}
			}
		}
	}
}

// TestMaterializePGeneralized checks hierarchy levels survive the
// in-memory source's parallel path.
func TestMaterializePGeneralized(t *testing.T) {
	h := dataset.NewCategorical("city", []string{"a", "b", "c", "d"})
	h.Hierarchy = dataset.NewHierarchy(4, []int{0, 0, 1, 1})
	attrs := []dataset.Attribute{h, dataset.NewCategorical("x", []string{"0", "1"})}
	ds := dataset.New(attrs)
	rng := rand.New(rand.NewSource(7))
	rec := make([]uint16, 2)
	for r := 0; r < 6000; r++ {
		rec[0], rec[1] = uint16(rng.Intn(4)), uint16(rng.Intn(2))
		ds.Append(rec)
	}
	parents, child := []Var{{Attr: 0, Level: 1}}, Var{Attr: 1}
	want := MaterializeCounts(ds, []Var{parents[0], child})
	got, err := NewMemorySource(ds, 4).CountTables(parents, []Var{child})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.P {
		if got[0].P[i] != want.P[i] {
			t.Fatalf("cell %d = %g, want %g", i, got[0].P[i], want.P[i])
		}
	}
}

// TestMemorySourceMatchesMaterializeCounts checks the in-memory source
// returns, at every parallelism, the exact counts the serial
// MaterializeCounts produces — popcount-eligible and row-walk children,
// taxonomy levels above zero, and a repeated request that hits the
// index cache.
func TestMemorySourceMatchesMaterializeCounts(t *testing.T) {
	ds := hierData(6000, 9)
	parents := []Var{{Attr: 0, Level: 1}, {Attr: 2}}
	children := []Var{{Attr: 1}, {Attr: 0}}
	for _, par := range []int{1, 2, 3, 8} {
		src := NewMemorySource(ds, par)
		if src.Rows() != ds.N() {
			t.Fatalf("Rows() = %d, want %d", src.Rows(), ds.N())
		}
		for rep := 0; rep < 2; rep++ {
			got, err := src.CountTables(parents, children)
			if err != nil {
				t.Fatal(err)
			}
			for j, ch := range children {
				want := MaterializeCounts(ds, append(append([]Var(nil), parents...), ch))
				for i := range want.P {
					if got[j].P[i] != want.P[i] {
						t.Fatalf("parallelism %d child %v cell %d: %g, want %g", par, ch, i, got[j].P[i], want.P[i])
					}
				}
			}
		}
		if hits, misses := src.Indexes().Stats(); hits != 1 || misses != 1 {
			t.Errorf("parallelism %d: index cache %d hits %d misses, want 1/1", par, hits, misses)
		}
	}
}

// TestMemorySourceOverflowAndSameRows checks an overflowing parent set
// is an error rather than a panic, and that SameRows identifies two
// in-memory sources over one dataset.
func TestMemorySourceOverflowAndSameRows(t *testing.T) {
	labels := make([]string, 1<<12)
	for i := range labels {
		labels[i] = string(rune('A' + i%26))
	}
	attrs := []dataset.Attribute{
		dataset.NewCategorical("a", labels),
		dataset.NewCategorical("b", labels),
		dataset.NewCategorical("c", labels),
		dataset.NewCategorical("d", []string{"0", "1"}),
	}
	ds := dataset.New(attrs)
	src := NewMemorySource(ds, 2)
	if _, err := src.CountTables([]Var{{Attr: 0}, {Attr: 1}, {Attr: 2}}, []Var{{Attr: 3}}); err == nil {
		t.Error("2^36 parent configurations must be an error")
	}
	if !SameRows(src, NewMemorySource(ds, 1)) {
		t.Error("two sources over one dataset must count the same rows")
	}
	if SameRows(src, NewMemorySource(dataset.New(attrs), 2)) {
		t.Error("sources over different datasets must differ")
	}
}

// TestMemorySourceKeepsNoRowState pins that an in-memory source keeps
// nothing per row between requests. It counts one child against each
// of 64 distinct parent sets of a 200 000-row dataset; the attributes
// are five-valued, so their columns are byte-coded and every joint
// takes the row walk. With the source still alive, the heap may then
// have grown by at most 4 MiB; a retained 4-byte code per row for each
// parent set would be about 49 MiB.
func TestMemorySourceKeepsNoRowState(t *testing.T) {
	if testing.Short() {
		t.Skip("200 000-row dataset in -short mode")
	}
	const n, d = 200_000, 8
	ds := randomData(n, d, 5, 17)
	src := NewMemorySource(ds, 2)
	var sets [][]Var // 8 single parents and 56 ordered pairs
	for a := 0; a < d; a++ {
		sets = append(sets, []Var{{Attr: a}})
		for b := 0; b < d; b++ {
			if b != a {
				sets = append(sets, []Var{{Attr: a}, {Attr: b}})
			}
		}
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, parents := range sets {
		child := Var{}
		for slices.Contains(parents, child) {
			child.Attr++
		}
		if _, err := src.CountTables(parents, []Var{child}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if _, misses := src.Indexes().Stats(); misses != 64 {
		t.Fatalf("%d distinct parent sets counted, want 64", misses)
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap growth after 64 parent sets over %d rows: %.1f MiB", n, float64(growth)/(1<<20))
	if growth > 4<<20 {
		t.Fatalf("heap grew by %.1f MiB with the source alive, want at most 4 MiB", float64(growth)/(1<<20))
	}
}
