package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"privbayes/internal/dataset"
	"privbayes/internal/score"
)

// fitJSON runs Fit with the given parallelism and a fresh seed-1
// generator and returns the serialized model, the byte-comparable
// fingerprint of network + conditionals.
func fitJSON(t *testing.T, parallelism int, mode Mode) []byte {
	t.Helper()
	var opt Options
	var m *Model
	var err error
	if mode == ModeBinary {
		ds := chainData(3000, 7)
		opt = Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2, Mode: ModeBinary,
			Score: score.F, Parallelism: parallelism, Rand: rand.New(rand.NewSource(1))}
		m, err = Fit(ds, opt)
	} else {
		ds := mixedData(3000, 8)
		opt = Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, Mode: ModeGeneral,
			Score: score.R, UseHierarchy: true, Parallelism: parallelism, Rand: rand.New(rand.NewSource(1))}
		m, err = Fit(ds, opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf, 0.8); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFitBitIdenticalAcrossParallelism checks the engine's central
// guarantee: Fit consumes randomness only on the caller's generator
// (exponential-mechanism draws, Laplace noise), every parallel stage is
// a pure ordered reduction, and marginal counting merges exact integer
// partials that are scaled once by 1/n — so the fitted model is
// bit-identical at every parallelism (1 and the GOMAXPROCS default 0
// included), on any machine, for a fixed seed.
func TestFitBitIdenticalAcrossParallelism(t *testing.T) {
	for _, mode := range []Mode{ModeBinary, ModeGeneral} {
		want := fitJSON(t, 2, mode)
		for _, par := range []int{0, 1, 3, 4, 8} {
			if got := fitJSON(t, par, mode); !bytes.Equal(got, want) {
				t.Errorf("mode %v: Fit at parallelism %d differs from parallelism 2", mode, par)
			}
		}
	}
}

// TestSamplePDeterministicAcrossParallelism checks the split-RNG scheme:
// chunk geometry and chunk seeds depend only on (n, seed), so sampled
// output is bit-identical at every parallelism — 1 and the GOMAXPROCS
// default 0 included, whatever the machine resolves it to.
func TestSamplePDeterministicAcrossParallelism(t *testing.T) {
	ds := chainData(3000, 7)
	m, err := Fit(ds, Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2, Mode: ModeBinary,
		Score: score.F, Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000 // spans multiple sample chunks
	want := m.SampleP(n, rand.New(rand.NewSource(3)), 2)
	for _, par := range []int{0, 1, 3, 4, 16} {
		got := m.SampleP(n, rand.New(rand.NewSource(3)), par)
		for c := 0; c < got.D(); c++ {
			a, b := got.ColumnCodes(c), want.ColumnCodes(c)
			for r := range a {
				if a[r] != b[r] {
					t.Fatalf("parallelism %d: row %d col %d = %d, want %d", par, r, c, a[r], b[r])
				}
			}
		}
	}
}

// TestSamplePBitPacked checks that sampled datasets take the column
// layout of every other dataset: a binary model's SampleP output,
// spanning several sampling bursts, is bit-packed in every column, so
// the popcount kernels count it.
func TestSamplePBitPacked(t *testing.T) {
	ds := chainData(2000, 7)
	m, err := Fit(ds, Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2, Mode: ModeBinary,
		Score: score.F, Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	syn := m.SampleP(2*StreamChunkRows+100, rand.New(rand.NewSource(3)), 2)
	for c := 0; c < syn.D(); c++ {
		if !syn.Col(c).Maskable() {
			t.Errorf("column %d of a binary model's sample is not bit-packed", c)
		}
	}
}

// TestConcurrentFitSharedScorer stresses concurrent Fit calls sharing
// one Scorer cache, each internally parallel (run with -race). Every
// call must still produce the model its own seed dictates.
func TestConcurrentFitSharedScorer(t *testing.T) {
	ds := chainData(2000, 9)
	sc := score.NewScorer(score.F, ds)
	want := fitSharedScorer(t, ds, sc)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := fitSharedScorer(t, ds, sc)
			if !bytes.Equal(got, want) {
				t.Error("concurrent Fit with shared scorer diverged")
			}
		}()
	}
	wg.Wait()
}

func fitSharedScorer(t *testing.T, ds *dataset.Dataset, sc *score.Scorer) []byte {
	t.Helper()
	m, err := Fit(ds, Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2,
		Mode: ModeBinary, Score: score.F, Scorer: sc, Parallelism: 4,
		Rand: rand.New(rand.NewSource(6))})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf, 0.8); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
