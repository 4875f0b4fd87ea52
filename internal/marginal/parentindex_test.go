package marginal

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"privbayes/internal/dataset"
)

// hierData builds a dataset whose first attribute carries a two-level
// taxonomy, for generalization-aware index tests.
func hierData(n int, seed int64) *dataset.Dataset {
	h := dataset.NewCategorical("city", []string{"a", "b", "c", "d"})
	h.Hierarchy = dataset.NewHierarchy(4, []int{0, 0, 1, 1})
	attrs := []dataset.Attribute{
		h,
		dataset.NewCategorical("x", []string{"0", "1", "2"}),
		dataset.NewCategorical("y", []string{"0", "1"}),
	}
	ds := dataset.New(attrs)
	rng := rand.New(rand.NewSource(seed))
	rec := make([]uint16, 3)
	for r := 0; r < n; r++ {
		rec[0], rec[1], rec[2] = uint16(rng.Intn(4)), uint16(rng.Intn(3)), uint16(rng.Intn(2))
		ds.Append(rec)
	}
	return ds
}

// TestParentIndexCodes checks the row walk places each row at the cell
// of its parent configuration, including a parent at a taxonomy level
// above zero: child y counted against (city at level 1, x) must match
// MaterializeCounts' own row walk.
func TestParentIndexCodes(t *testing.T) {
	ds := hierData(500, 1)
	parents := []Var{{Attr: 0, Level: 1}, {Attr: 1}}
	child := Var{Attr: 2}
	want := MaterializeCounts(ds, append(append([]Var(nil), parents...), child))
	for _, par := range []int{1, 4} {
		ix := BuildParentIndex(ds, parents)
		if ix.PiDim != 2*3 {
			t.Fatalf("PiDim = %d, want 6", ix.PiDim)
		}
		got := ix.CountChildren(ds, []Var{child}, par)[0]
		for i := range want.P {
			if got.P[i] != want.P[i] {
				t.Fatalf("parallelism %d cell %d: %g, want %g", par, i, got.P[i], want.P[i])
			}
		}
	}
}

// TestCountChildrenMatchesMaterializeCounts checks the fused multi-child
// pass is bit-identical to per-child MaterializeCounts at every
// parallelism, including generalized children.
func TestCountChildrenMatchesMaterializeCounts(t *testing.T) {
	ds := hierData(4000, 2)
	parents := []Var{{Attr: 1}}
	children := []Var{{Attr: 0}, {Attr: 2}, {Attr: 0, Level: 1}}
	for _, par := range []int{1, 2, 8} {
		ix := BuildParentIndex(ds, parents)
		got := ix.CountChildren(ds, children, par)
		for j, ch := range children {
			want := MaterializeCounts(ds, append(append([]Var(nil), parents...), ch))
			if len(got[j].P) != len(want.P) {
				t.Fatalf("child %v: %d cells, want %d", ch, len(got[j].P), len(want.P))
			}
			for i := range want.P {
				if got[j].P[i] != want.P[i] {
					t.Fatalf("parallelism %d child %v cell %d: %g, want %g", par, ch, i, got[j].P[i], want.P[i])
				}
			}
		}
	}
}

// TestEmptyParentSetCounting checks the degenerate single-configuration
// index counts children like a plain one-variable scan.
func TestEmptyParentSetCounting(t *testing.T) {
	ds := hierData(1500, 5)
	ix := BuildParentIndex(ds, nil)
	if ix.PiDim != 1 {
		t.Fatalf("empty parent set: PiDim %d", ix.PiDim)
	}
	got := ix.CountChildren(ds, []Var{{Attr: 2}}, 4)[0]
	want := MaterializeCounts(ds, []Var{{Attr: 2}})
	for i := range want.P {
		if got.P[i] != want.P[i] {
			t.Fatalf("cell %d: %g, want %g", i, got.P[i], want.P[i])
		}
	}
}

// TestIndexCacheLRU checks capacity bounds, hit accounting and
// order-sensitivity of the key (layout differs, so ordered lists are
// distinct cache identities).
func TestIndexCacheLRU(t *testing.T) {
	ds := hierData(300, 7)
	c := NewIndexCache(2)
	a := c.Get(ds, []Var{{Attr: 0}})
	if got := c.Get(ds, []Var{{Attr: 0}}); got != a {
		t.Error("second Get should hit the cached index")
	}
	c.Get(ds, []Var{{Attr: 1}})
	c.Get(ds, []Var{{Attr: 2}}) // evicts {0}, the least recently used
	if c.Len() != 2 {
		t.Fatalf("cache holds %d indexes, want 2", c.Len())
	}
	if got := c.Get(ds, []Var{{Attr: 0}}); got == a {
		t.Error("evicted index should have been rebuilt")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 4 {
		t.Errorf("stats = %d hits %d misses, want 1/4", hits, misses)
	}
	// Ordered lists are distinct identities: layouts differ.
	big := NewIndexCache(8)
	x := big.Get(ds, []Var{{Attr: 0}, {Attr: 1}})
	y := big.Get(ds, []Var{{Attr: 1}, {Attr: 0}})
	if x == y {
		t.Error("parent orderings must cache separately (different layouts)")
	}
	if big.Len() != 2 {
		t.Errorf("cache holds %d indexes, want 2", big.Len())
	}
}

// TestIndexCacheConcurrent stresses concurrent Get on overlapping parent
// sets (run with -race); every goroutine must see correct indexes.
func TestIndexCacheConcurrent(t *testing.T) {
	ds := hierData(2000, 8)
	c := NewIndexCache(3)
	want := MaterializeCounts(ds, []Var{{Attr: 0}, {Attr: 1}, {Attr: 2}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for trial := 0; trial < 20; trial++ {
				parents := []Var{{Attr: (g + trial) % 3}}
				ix := c.Get(ds, parents)
				if ix.PiDim != parents[0].Size(ds) {
					t.Errorf("PiDim %d for %v", ix.PiDim, parents)
				}
				full := c.Get(ds, []Var{{Attr: 0}, {Attr: 1}})
				joint := full.CountChildren(ds, []Var{{Attr: 2}}, 2)[0]
				for i := range want.P {
					if joint.P[i] != want.P[i] {
						t.Errorf("joint cell %d: %g, want %g", i, joint.P[i], want.P[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestParentConfigsOverflow checks the uint32 guard trips on absurd
// configuration spaces instead of overflowing.
func TestParentConfigsOverflow(t *testing.T) {
	labels := make([]string, 1<<12)
	for i := range labels {
		labels[i] = fmt.Sprint(i)
	}
	attrs := []dataset.Attribute{
		dataset.NewCategorical("a", labels),
		dataset.NewCategorical("b", labels),
		dataset.NewCategorical("c", labels),
	}
	ds := dataset.New(attrs)
	if _, ok := ParentConfigs(ds, []Var{{Attr: 0}, {Attr: 1}}); !ok {
		t.Error("2^24 configurations should be accepted")
	}
	if _, ok := ParentConfigs(ds, []Var{{Attr: 0}, {Attr: 1}, {Attr: 2}}); ok {
		t.Error("2^36 configurations must be rejected")
	}
}
