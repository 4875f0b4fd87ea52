package parallel

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	for _, p := range []int{1, 2, 7} {
		if got := Workers(p); got != p {
			t.Errorf("Workers(%d) = %d", p, got)
		}
	}
}

// TestForCoversEveryIndexOnce checks the pool visits each index exactly
// once at several worker counts, including n = 0 and workers > n.
func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 100} {
		for _, n := range []int{0, 1, 7, 1000} {
			hits := make([]atomic.Int64, max(n, 1))
			if err := ForCtx(context.Background(), workers, n, func(i int) { hits[i].Add(1) }); err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := 0; i < n; i++ {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestMapOrderedReduction checks results land in their own index slots
// regardless of scheduling.
func TestMapOrderedReduction(t *testing.T) {
	out, err := MapCtx(context.Background(), 8, 500, func(i int) int { return i * i })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestForChunksCoverage(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		for _, n := range []int{0, 1, 10, 1000, 1024} {
			var mu sync.Mutex
			seen := make([]bool, n)
			err := ForChunks(context.Background(), workers, n, 64, func(worker, lo, hi int) {
				if worker < 0 || worker >= workers {
					t.Errorf("worker id %d out of range [0,%d)", worker, workers)
				}
				if hi-lo > 64 || lo >= hi {
					t.Errorf("bad chunk [%d,%d)", lo, hi)
				}
				mu.Lock()
				for r := lo; r < hi; r++ {
					if seen[r] {
						t.Errorf("row %d covered twice", r)
					}
					seen[r] = true
				}
				mu.Unlock()
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for r := 0; r < n; r++ {
				if !seen[r] {
					t.Fatalf("workers=%d n=%d: row %d never covered", workers, n, r)
				}
			}
		}
	}
}

func TestChunksGeometryIndependentOfWorkers(t *testing.T) {
	if got := Chunks(0, 64); got != 0 {
		t.Errorf("Chunks(0, 64) = %d", got)
	}
	if got := Chunks(65, 64); got != 2 {
		t.Errorf("Chunks(65, 64) = %d", got)
	}
	if got := Chunks(64, 64); got != 1 {
		t.Errorf("Chunks(64, 64) = %d", got)
	}
}

// TestSplitSeedsDeterministic checks the split-RNG scheme: the seed list
// depends only on the generator state, so two identically seeded
// generators yield identical streams.
func TestSplitSeedsDeterministic(t *testing.T) {
	a := SplitSeeds(rand.New(rand.NewSource(9)), 16)
	b := SplitSeeds(rand.New(rand.NewSource(9)), 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d differs: %d vs %d", i, a[i], b[i])
		}
	}
	c := SplitSeeds(rand.New(rand.NewSource(10)), 16)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different master seeds produced identical streams")
	}
}

// TestForPanicPropagates checks a worker panic resurfaces on the caller,
// matching serial semantics.
func TestForPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in worker was swallowed")
		}
	}()
	ForCtx(context.Background(), 4, 100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}
