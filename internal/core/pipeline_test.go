package core

import (
	"math"
	"math/rand"
	"testing"

	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
	"privbayes/internal/score"
)

func TestFitValidation(t *testing.T) {
	ds := chainData(100, 1)
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		opt  Options
	}{
		{"missing rand", Options{Epsilon: 1, Beta: 0.3, Theta: 4, Mode: ModeBinary, Score: score.F}},
		{"bad epsilon", Options{Epsilon: -1, Beta: 0.3, Theta: 4, Mode: ModeBinary, Score: score.F, Rand: rng}},
		{"NaN epsilon", Options{Epsilon: math.NaN(), Beta: 0.3, Theta: 4, Mode: ModeBinary, Score: score.F, Rand: rng}},
		{"+Inf epsilon", Options{Epsilon: math.Inf(1), Beta: 0.3, Theta: 4, Mode: ModeBinary, Score: score.F, Rand: rng}},
		{"epsilon too small to split", Options{Epsilon: 5e-324, Beta: 0.3, Theta: 4, Mode: ModeBinary, Score: score.F, Rand: rng}},
		{"epsilon too small per greedy iteration", Options{Epsilon: 2e-323, Beta: 0.3, Theta: 4, Mode: ModeBinary, Score: score.F, Rand: rng}},
		{"bad beta", Options{Epsilon: 1, Beta: 1.5, Theta: 4, Mode: ModeBinary, Score: score.F, Rand: rng}},
		{"NaN beta", Options{Epsilon: 1, Beta: math.NaN(), Theta: 4, Mode: ModeBinary, Score: score.F, Rand: rng}},
		{"bad theta", Options{Epsilon: 1, Beta: 0.3, Theta: -2, Mode: ModeBinary, Score: score.F, Rand: rng}},
		{"NaN theta", Options{Epsilon: 1, Beta: 0.3, Theta: math.NaN(), Mode: ModeBinary, Score: score.F, Rand: rng}},
		{"+Inf theta", Options{Epsilon: 1, Beta: 0.3, Theta: math.Inf(1), Mode: ModeBinary, Score: score.F, Rand: rng}},
		{"F on general domains", Options{Epsilon: 1, Beta: 0.3, Theta: 4, Mode: ModeGeneral, Score: score.F, Rand: rng}},
	}
	for _, c := range cases {
		if _, err := Fit(ds, c.opt); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestFitRejectsBinaryModeOnGeneralDomains(t *testing.T) {
	ds := mixedData(100, 2)
	_, err := Fit(ds, Options{
		Epsilon: 1, Beta: 0.3, Theta: 4, Mode: ModeBinary,
		Score: score.F, Rand: rand.New(rand.NewSource(1)),
	})
	if err == nil {
		t.Fatal("ModeBinary must reject non-binary attributes")
	}
}

func TestFitRejectsEmptyDataset(t *testing.T) {
	ds := dataset.New([]dataset.Attribute{dataset.NewCategorical("a", []string{"0", "1"})})
	_, err := Fit(ds, Options{
		Epsilon: 1, Beta: 0.3, Theta: 4, Mode: ModeBinary,
		Score: score.F, Rand: rand.New(rand.NewSource(1)),
	})
	if err == nil {
		t.Fatal("empty dataset must error")
	}
}

func TestFitRejectsMismatchedScorer(t *testing.T) {
	ds := chainData(100, 3)
	sc := score.NewScorer(score.MI, ds)
	_, err := Fit(ds, Options{
		Epsilon: 1, Beta: 0.3, Theta: 4, Mode: ModeBinary,
		Score: score.F, Scorer: sc, Rand: rand.New(rand.NewSource(1)),
	})
	if err == nil {
		t.Fatal("scorer/function mismatch must error")
	}
}

func TestFitDeterministicGivenSeed(t *testing.T) {
	ds := chainData(1000, 4)
	run := func() *dataset.Dataset {
		rng := rand.New(rand.NewSource(99))
		syn, err := Synthesize(ds, Options{
			Epsilon: 0.5, Beta: 0.3, Theta: 4, K: -1,
			Mode: ModeBinary, Score: score.F, Rand: rng,
		})
		if err != nil {
			t.Fatal(err)
		}
		return syn
	}
	a, b := run(), run()
	if a.N() != b.N() {
		t.Fatal("different sizes")
	}
	for r := 0; r < a.N(); r++ {
		for c := 0; c < a.D(); c++ {
			if a.Value(r, c) != b.Value(r, c) {
				t.Fatalf("runs diverge at (%d,%d)", r, c)
			}
		}
	}
}

func TestFitMaxKCap(t *testing.T) {
	ds := chainData(20000, 5)
	rng := rand.New(rand.NewSource(6))
	m, err := Fit(ds, Options{
		Epsilon: 10, Beta: 0.3, Theta: 4, K: -1, MaxK: 1,
		Mode: ModeBinary, Score: score.F, Rand: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 1 {
		t.Errorf("MaxK=1 but fitted K = %d", m.K)
	}
}

func TestFitForcedK(t *testing.T) {
	ds := chainData(2000, 7)
	rng := rand.New(rand.NewSource(8))
	m, err := Fit(ds, Options{
		Epsilon: 1, Beta: 0.3, Theta: 4, K: 3,
		Mode: ModeBinary, Score: score.F, Rand: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 3 {
		t.Errorf("forced K = 3 but got %d", m.K)
	}
}

// More budget must (statistically) mean better synthetic marginals.
func TestAccuracyImprovesWithEpsilon(t *testing.T) {
	ds := chainData(8000, 9)
	avd := func(eps float64) float64 {
		var total float64
		const reps = 3
		for r := 0; r < reps; r++ {
			rng := rand.New(rand.NewSource(int64(100 + r)))
			syn, err := Synthesize(ds, Options{
				Epsilon: eps, Beta: 0.3, Theta: 4, K: -1,
				Mode: ModeBinary, Score: score.F, Rand: rng,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Average TVD over all 2-way marginals.
			var sum float64
			cnt := 0
			for i := 0; i < ds.D(); i++ {
				for j := i + 1; j < ds.D(); j++ {
					vars := []marginal.Var{{Attr: i}, {Attr: j}}
					sum += marginal.TVD(marginal.Materialize(ds, vars), marginal.Materialize(syn, vars))
					cnt++
				}
			}
			total += sum / float64(cnt)
		}
		return total / reps
	}
	low, high := avd(0.05), avd(2.0)
	if high >= low {
		t.Errorf("AVD at ε=2 (%v) should beat ε=0.05 (%v)", high, low)
	}
}

// Figure 11's premise: removing marginal noise (BestMarginal) must not
// hurt, and at small ε should clearly help count queries.
func TestInfiniteMarginalBudgetHelps(t *testing.T) {
	ds := chainData(5000, 10)
	run := func(infMarg bool) float64 {
		var total float64
		const reps = 3
		for r := 0; r < reps; r++ {
			rng := rand.New(rand.NewSource(int64(200 + r)))
			syn, err := Synthesize(ds, Options{
				Epsilon: 0.05, Beta: 0.3, Theta: 4, K: -1,
				Mode: ModeBinary, Score: score.F, Rand: rng,
				InfiniteMarginalBudget: infMarg,
			})
			if err != nil {
				t.Fatal(err)
			}
			vars := []marginal.Var{{Attr: 0}, {Attr: 1}}
			total += marginal.TVD(marginal.Materialize(ds, vars), marginal.Materialize(syn, vars))
		}
		return total / reps
	}
	noisy, clean := run(false), run(true)
	if clean >= noisy {
		t.Errorf("BestMarginal TVD (%v) should beat PrivBayes (%v) at ε=0.05", clean, noisy)
	}
}

func TestSynthesizeSameCardinality(t *testing.T) {
	ds := mixedData(1234, 11)
	rng := rand.New(rand.NewSource(12))
	syn, err := Synthesize(ds, DefaultOptions(1.0, rng))
	if err != nil {
		t.Fatal(err)
	}
	if syn.N() != ds.N() {
		t.Errorf("synthetic N = %d, want %d", syn.N(), ds.N())
	}
}

func TestModelSampleZeroRows(t *testing.T) {
	ds := chainData(500, 13)
	rng := rand.New(rand.NewSource(14))
	m, err := Fit(ds, Options{
		Epsilon: 1, Beta: 0.3, Theta: 4, K: 1,
		Mode: ModeBinary, Score: score.F, Rand: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if syn := m.SampleP(0, rng, 0); syn.N() != 0 {
		t.Error("zero-row sample should be empty")
	}
}
