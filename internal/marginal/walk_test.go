package marginal

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"privbayes/internal/dataset"
)

// taxonomy gives a domain of size raw generalization levels that halve
// it until one group is left, so a variable can sit at any level.
func taxonomy(raw int) *dataset.Hierarchy {
	var maps [][]int
	for w := 2; (raw+w/2-1)/(w/2) > 1; w *= 2 {
		m := make([]int, raw)
		for c := range m {
			m[c] = c / w
		}
		maps = append(maps, m)
	}
	return dataset.NewHierarchy(raw, maps...)
}

// walkSchema draws d attributes whose columns span every code width —
// 1 bit (2 values), 2 bits (3–4), a byte (5–256) and two bytes (over
// 256) — each with a taxonomy.
func walkSchema(rng *rand.Rand, d int) []dataset.Attribute {
	sizes := []int{2, 3 + rng.Intn(2), 5 + rng.Intn(40), 257 + rng.Intn(200)}
	attrs := make([]dataset.Attribute, d)
	for a := range attrs {
		size := sizes[a%len(sizes)]
		if a >= len(sizes) {
			size = sizes[rng.Intn(len(sizes)-1)] // at most one wide column
		}
		labels := make([]string, size)
		for c := range labels {
			labels[c] = fmt.Sprint(c)
		}
		attrs[a] = dataset.NewCategorical(fmt.Sprintf("a%d", a), labels)
		attrs[a].Hierarchy = taxonomy(size)
	}
	return attrs
}

// walkData draws n rows over attrs, skewed so that tables have empty
// and crowded cells.
func walkData(rng *rand.Rand, attrs []dataset.Attribute, n int) *dataset.Dataset {
	ds := dataset.NewWithCapacity(attrs, n)
	rec := make([]uint16, len(attrs))
	for r := 0; r < n; r++ {
		for a := range attrs {
			v := rng.Intn(attrs[a].Size())
			if a > 0 && rng.Intn(3) == 0 {
				v = int(rec[a-1]) % attrs[a].Size()
			}
			rec[a] = uint16(v)
		}
		ds.Append(rec)
	}
	return ds
}

// randomVar draws a variable at a random taxonomy level.
func randomVar(rng *rand.Rand, attrs []dataset.Attribute) Var {
	a := rng.Intn(len(attrs))
	return Var{Attr: a, Level: rng.Intn(attrs[a].Height())}
}

// randomBatch draws count requests of up to three parents and three
// children. Besides fresh parent lists it repeats earlier lists,
// extends them by one variable (a shared prefix), and draws empty
// ones. Parent lists skip a second short-coded parent, and children
// whose table would pass 2¹⁶ cells are left out, to keep tables small.
func randomBatch(rng *rand.Rand, attrs []dataset.Attribute, count int) []CountRequest {
	wide := func(v Var) bool { return attrs[v.Attr].SizeAt(v.Level) > 256 }
	var reqs []CountRequest
	for len(reqs) < count {
		var parents []Var
		switch k := rng.Intn(6); {
		case k == 0 || len(reqs) == 0:
			// empty parent set
		case k == 1:
			parents = reqs[rng.Intn(len(reqs))].Parents
		case k == 2:
			prev := reqs[rng.Intn(len(reqs))].Parents
			if v := randomVar(rng, attrs); len(prev) < 3 && !wide(v) {
				parents = append(append([]Var(nil), prev...), v)
			}
		default:
			hasWide := false
			for range 1 + rng.Intn(3) {
				v := randomVar(rng, attrs)
				if wide(v) && hasWide {
					continue
				}
				hasWide = hasWide || wide(v)
				parents = append(parents, v)
			}
		}
		piDim := 1
		for _, v := range parents {
			piDim *= attrs[v.Attr].SizeAt(v.Level)
		}
		var children []Var
		for range rng.Intn(4) {
			if v := randomVar(rng, attrs); piDim*attrs[v.Attr].SizeAt(v.Level) <= 1<<16 {
				children = append(children, v)
			}
		}
		reqs = append(reqs, CountRequest{Parents: parents, Children: children})
	}
	return reqs
}

// checkBatch counts reqs in one CountBatch and checks that use sees
// every request exactly once, with each table equal to the plain row
// walk of MaterializeCounts.
func checkBatch(t testing.TB, ds *dataset.Dataset, reqs []CountRequest, par int) {
	t.Helper()
	got := make([][]*Table, len(reqs))
	calls := make([]atomic.Int32, len(reqs))
	err := NewMemorySource(ds, par).CountBatch(context.Background(), par, reqs, func(i int, tables []*Table) {
		calls[i].Add(1)
		got[i] = tables
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("request %d handed to use %d times", i, c)
		}
		if len(got[i]) != len(r.Children) {
			t.Fatalf("request %d: %d tables for %d children", i, len(got[i]), len(r.Children))
		}
		for j, ch := range r.Children {
			vars := append(append([]Var(nil), r.Parents...), ch)
			var want *Table
			withRowMajor(func() { want = MaterializeCounts(ds, vars) })
			if len(got[i][j].P) != len(want.P) {
				t.Fatalf("%v: %d cells, want %d", vars, len(got[i][j].P), len(want.P))
			}
			for c := range want.P {
				if got[i][j].P[c] != want.P[c] {
					t.Fatalf("n=%d par=%d %v cell %d: batch %v, row walk %v", ds.N(), par, vars, c, got[i][j].P[c], want.P[c])
				}
			}
		}
	}
}

// TestCountBatchMatchesMaterializeCounts is the batched walk's
// differential test: random hierarchical schemas over every column
// width, batches with shared prefixes, repeated and empty parent sets
// and generalized children, row counts around the chunk and count-block
// edges, three parallelisms, and a pass cap small enough that every
// batch takes several passes.
func TestCountBatchMatchesMaterializeCounts(t *testing.T) {
	old := maxPassCells
	maxPassCells = 700
	defer func() { maxPassCells = old }()
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 1, materializeChunk - 1, materializeChunk, materializeChunk + 1, countBlockRows + 1000} {
		attrs := walkSchema(rng, 6)
		ds := walkData(rng, attrs, n)
		reqs := randomBatch(rng, attrs, 24)
		for _, par := range []int{1, 2, 3} {
			checkBatch(t, ds, reqs, par)
		}
	}
}

// TestCountBatchPasses counts the passes of a batch above the cap and
// the cells each pass's workers allocate: passes hold at most the cap
// unless one table alone exceeds it, and each worker's cells are
// exactly its pass's tables.
func TestCountBatchPasses(t *testing.T) {
	old := maxPassCells
	maxPassCells = 100
	defer func() { maxPassCells = old }()
	type pass struct{ reqs, workers, cells int }
	var passes []pass
	passHook = func(reqs, workers, cells int) { passes = append(passes, pass{reqs, workers, cells}) }
	defer func() { passHook = nil }()

	attrs := []dataset.Attribute{
		dataset.NewCategorical("p", labelsN(8)),
		dataset.NewCategorical("x", labelsN(6)),
		dataset.NewCategorical("y", labelsN(25)),
	}
	ds := walkData(rand.New(rand.NewSource(3)), attrs, 3*materializeChunk)
	var reqs []CountRequest
	for range 10 { // ten 48-cell tables: five passes of two
		reqs = append(reqs, CountRequest{Parents: []Var{{Attr: 0}}, Children: []Var{{Attr: 1}}})
	}
	// One 200-cell table: a pass of its own.
	reqs = append(reqs, CountRequest{Parents: []Var{{Attr: 0}}, Children: []Var{{Attr: 2}}})
	for _, par := range []int{1, 2, 8} {
		passes = nil
		checkBatch(t, ds, reqs, par)
		want := []pass{{2, 0, 96}, {2, 0, 96}, {2, 0, 96}, {2, 0, 96}, {2, 0, 96}, {1, 0, 200}}
		if len(passes) != len(want) {
			t.Fatalf("parallelism %d: %d passes %v, want %d", par, len(passes), passes, len(want))
		}
		for k, p := range passes {
			want[k].workers = min(par, 3) // three chunks of rows
			if p != want[k] {
				t.Errorf("parallelism %d pass %d: %+v, want %+v", par, k, p, want[k])
			}
		}
	}
}

func labelsN(k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = fmt.Sprint(i)
	}
	return out
}

// TestCountBatchCancel checks a batch honours its context: cancelled
// before it starts, it hands no request to use; cancelled as a walk
// starts, it returns context.Canceled; and it leaks no goroutines.
func TestCountBatchCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	attrs := walkSchema(rng, 6)
	ds := walkData(rng, attrs, 64*materializeChunk)
	reqs := randomBatch(rng, attrs, 40)
	base := runtime.NumGoroutine()
	for _, par := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		used := 0
		err := NewMemorySource(ds, par).CountBatch(ctx, par, reqs, func(int, []*Table) { used++ })
		if !errors.Is(err, context.Canceled) || used != 0 {
			t.Fatalf("parallelism %d, cancelled first: err %v after %d requests", par, err, used)
		}

		ctx, cancel = context.WithCancel(context.Background())
		passHook = func(int, int, int) { cancel() } // cancel as each walk starts
		err = NewMemorySource(ds, par).CountBatch(ctx, par, reqs, func(int, []*Table) {})
		passHook = nil
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d, cancelled mid-walk: err = %v", par, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base+2 {
		t.Errorf("goroutines: %d before, %d after cancelled batches", base, g)
	}
}
