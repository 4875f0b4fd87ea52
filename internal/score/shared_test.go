package score

// Equivalence and stress tests for the shared-scan batch engine: the
// acceptance contract is that ScoreBatch returns values bit-identical to
// scoring each candidate from its own serial marginal.Materialize (or
// MaterializeCounts for F), for every score function, at taxonomy
// levels above zero, and at every parallelism including 1.

import (
	"math/rand"
	"sync"
	"testing"

	"privbayes/internal/dataset"
	"privbayes/internal/infotheory"
	"privbayes/internal/marginal"
)

// greedyShapedPairs mimics one iteration of Algorithm 2: every remaining
// child crossed with every size-k subset of the chosen set V — the
// candidate shape whose parent-set sharing the engine exploits.
func greedyShapedPairs(d, vSize, k int) []Pair {
	var parentSets [][]marginal.Var
	set := make([]marginal.Var, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(set) == k {
			parentSets = append(parentSets, append([]marginal.Var(nil), set...))
			return
		}
		for i := start; i <= vSize-(k-len(set)); i++ {
			set = append(set, marginal.Var{Attr: i})
			rec(i + 1)
			set = set[:len(set)-1]
		}
	}
	rec(0)
	var pairs []Pair
	for x := vSize; x < d; x++ {
		for _, ps := range parentSets {
			pairs = append(pairs, Pair{X: marginal.Var{Attr: x}, Parents: ps})
		}
	}
	return pairs
}

// wideBinaryData builds an n-row all-binary dataset of width d with
// chained correlations.
func wideBinaryData(n, d int, seed int64) *dataset.Dataset {
	attrs := make([]dataset.Attribute, d)
	for i := range attrs {
		attrs[i] = dataset.NewCategorical(string(rune('a'+i%26))+string(rune('0'+i/26)), []string{"0", "1"})
	}
	ds := dataset.New(attrs)
	rng := rand.New(rand.NewSource(seed))
	rec := make([]uint16, d)
	for r := 0; r < n; r++ {
		rec[0] = uint16(rng.Intn(2))
		for c := 1; c < d; c++ {
			rec[c] = rec[c-1]
			if rng.Float64() < 0.25 {
				rec[c] = 1 - rec[c]
			}
		}
		ds.Append(rec)
	}
	return ds
}

// referenceScores scores each pair from its own serial materialization
// of [parents..., x] — one row walk per candidate, the engine the batch
// path replaced.
func referenceScores(fn Function, ds *dataset.Dataset, pairs []Pair) []float64 {
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		vars := append(append([]marginal.Var(nil), p.Parents...), p.X)
		switch fn {
		case MI:
			out[i] = infotheory.MutualInformationSplit(marginal.Materialize(ds, vars))
		case R:
			out[i] = RScore(marginal.Materialize(ds, vars))
		case F:
			out[i] = FScoreFromCounts(marginal.MaterializeCounts(ds, vars).P, ds.N())
		}
	}
	return out
}

// hierMixedData builds a dataset whose attributes all carry taxonomy
// trees (binary hierarchies over 8 bins, so levels 0..2 exist), for
// level > 0 equivalence.
func hierMixedData(n, d int, seed int64) *dataset.Dataset {
	attrs := make([]dataset.Attribute, d)
	for i := range attrs {
		attrs[i] = dataset.NewContinuous(string(rune('a'+i)), 0, 1, 8)
	}
	ds := dataset.New(attrs)
	rng := rand.New(rand.NewSource(seed))
	rec := make([]uint16, d)
	for r := 0; r < n; r++ {
		base := rng.Intn(8)
		for c := range rec {
			v := base
			if rng.Float64() < 0.4 {
				v = rng.Intn(8)
			}
			rec[c] = uint16(v)
		}
		ds.Append(rec)
	}
	return ds
}

// TestScoreBatchBitIdenticalToLegacy is the central equivalence test:
// shared-scan results equal per-candidate serial materialization bit
// for bit, for MI, F and R, at every parallelism including 1 (odd n so
// 1/n is inexact and any normalization drift would show).
func TestScoreBatchBitIdenticalToLegacy(t *testing.T) {
	ds := wideBinaryData(2999, 8, 21)
	pairs := greedyShapedPairs(8, 4, 2)
	pairs = append(pairs, Pair{X: marginal.Var{Attr: 7}}) // empty parent set
	for _, fn := range []Function{MI, F, R} {
		want := referenceScores(fn, ds, pairs)
		for _, par := range []int{1, 2, 4, 8} {
			got := NewScorer(fn, ds).ScoreBatch(par, pairs)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v parallelism %d pair %d: shared %v, reference %v", fn, par, i, got[i], want[i])
				}
			}
		}
	}
}

// TestScoreBatchBitIdenticalAtTaxonomyLevels repeats the equivalence
// with parents generalized to levels 1 and 2 of their taxonomies, as
// Algorithm 6's hierarchical candidates produce.
func TestScoreBatchBitIdenticalAtTaxonomyLevels(t *testing.T) {
	ds := hierMixedData(2477, 5, 22)
	var pairs []Pair
	for x := 0; x < 5; x++ {
		for p := 0; p < 5; p++ {
			if p == x {
				continue
			}
			for lvl := 0; lvl < 3; lvl++ {
				q := (p + 1) % 5
				if q == x {
					q = (q + 1) % 5
				}
				pairs = append(pairs, Pair{
					X:       marginal.Var{Attr: x},
					Parents: []marginal.Var{{Attr: p, Level: lvl}, {Attr: q, Level: 1}},
				})
			}
		}
	}
	for _, fn := range []Function{MI, R} {
		want := referenceScores(fn, ds, pairs)
		for _, par := range []int{1, 4} {
			got := NewScorer(fn, ds).ScoreBatch(par, pairs)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v parallelism %d pair %d: shared %v, reference %v", fn, par, i, got[i], want[i])
				}
			}
		}
	}
}

// TestScoreBatchDuplicatesAndPermutations checks within-batch dedup: a
// duplicated pair and a parent-order permutation of it must yield the
// identical value computed once.
func TestScoreBatchDuplicatesAndPermutations(t *testing.T) {
	ds := wideBinaryData(1000, 4, 23)
	p1 := []marginal.Var{{Attr: 0}, {Attr: 1}}
	p2 := []marginal.Var{{Attr: 1}, {Attr: 0}}
	x := marginal.Var{Attr: 3}
	sc := NewScorer(R, ds)
	got := sc.ScoreBatch(2, []Pair{{X: x, Parents: p1}, {X: x, Parents: p2}, {X: x, Parents: p1}})
	if got[0] != got[1] || got[1] != got[2] {
		t.Fatalf("permuted/duplicate pairs disagree: %v", got)
	}
	if sc.CacheSize() != 1 {
		t.Errorf("memo holds %d entries, want 1 (canonical identity)", sc.CacheSize())
	}
	if got[0] != sc.Score(x, p2) {
		t.Error("Score after batch must hit the same memo entry")
	}
}

// TestScoreBatchReusesIndexesAcrossIterations checks the cross-iteration
// contract: when a later batch must rescore (here forced by a bounded
// memo; in the pipeline it is new children against recurring parent
// sets), the parent-configuration indexes built earlier are reused
// rather than rebuilt — and a grown V only adds indexes for its new
// subsets.
func TestScoreBatchReusesIndexesAcrossIterations(t *testing.T) {
	ds := wideBinaryData(1200, 8, 24)
	sc := NewScorerSized(MI, ds, 1)              // memo too small to short-circuit
	sc.ScoreBatch(2, greedyShapedPairs(8, 3, 2)) // subsets of {0,1,2}
	_, misses1 := sc.Indexes().Stats()
	if misses1 != 3 {
		t.Fatalf("first iteration built %d indexes, want 3", misses1)
	}
	sc.ScoreBatch(2, greedyShapedPairs(8, 4, 2)) // subsets of {0,1,2,3} ⊃ previous
	hits2, misses2 := sc.Indexes().Stats()
	if misses2-misses1 != 3 {
		t.Errorf("second iteration built %d new indexes, want 3 (the sets touching attr 3)", misses2-misses1)
	}
	if hits2 == 0 {
		t.Error("second iteration should hit the cached parent indexes")
	}
}

// TestScorerSharedScanRace stresses one scorer — memo, ladder and the
// source's ParentIndex cache — under concurrent batch scoring (run with
// -race).
func TestScorerSharedScanRace(t *testing.T) {
	ds := wideBinaryData(1500, 8, 25)
	sc := NewScorerSized(R, ds, 16) // small bound: exercise eviction too
	pairs := greedyShapedPairs(8, 4, 2)
	want := referenceScores(R, ds, pairs)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(par int) {
			defer wg.Done()
			got := sc.ScoreBatch(par%4+1, pairs)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("concurrent batch diverged at pair %d", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestScorerBoundedMemo checks the ScorerCacheSize bound holds and
// never changes values — eviction only costs recomputes.
func TestScorerBoundedMemo(t *testing.T) {
	ds := wideBinaryData(800, 6, 26)
	pairs := greedyShapedPairs(6, 3, 2)
	unbounded := NewScorer(MI, ds).ScoreBatch(1, pairs)
	sc := NewScorerSized(MI, ds, 2)
	got := sc.ScoreBatch(1, pairs)
	for i := range unbounded {
		if got[i] != unbounded[i] {
			t.Fatalf("bounded scorer pair %d: %v, want %v", i, got[i], unbounded[i])
		}
	}
	if sc.CacheSize() > 2 {
		t.Errorf("memo holds %d entries, bound is 2", sc.CacheSize())
	}
	again := sc.ScoreBatch(1, pairs)
	for i := range unbounded {
		if again[i] != unbounded[i] {
			t.Fatalf("recomputed pair %d after eviction: %v, want %v", i, again[i], unbounded[i])
		}
	}
}

// TestScoreBatchFPanicsOnNonBinary preserves the legacy panic contract
// for F on general domains through the shared path.
func TestScoreBatchFPanicsOnNonBinary(t *testing.T) {
	attrs := []dataset.Attribute{
		dataset.NewCategorical("a", []string{"0", "1"}),
		dataset.NewCategorical("b", []string{"x", "y", "z"}),
	}
	ds := dataset.New(attrs)
	ds.Append([]uint16{0, 1})
	ds.Append([]uint16{1, 2})
	sc := NewScorer(F, ds)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-binary attribute under F")
		}
	}()
	sc.ScoreBatch(1, []Pair{{X: marginal.Var{Attr: 0}, Parents: []marginal.Var{{Attr: 1}}}})
}
