package dp

import (
	"math"
	"math/rand"
	"testing"
)

func TestLaplaceStats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	var mean, absMean, varSum float64
	for i := 0; i < n; i++ {
		x := Laplace(rng, 2)
		mean += x
		absMean += math.Abs(x)
		varSum += x * x
	}
	mean /= n
	absMean /= n
	varSum /= n
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean = %v, want ≈ 0", mean)
	}
	if math.Abs(absMean-2) > 0.05 {
		t.Errorf("E|x| = %v, want ≈ 2 (scale)", absMean)
	}
	if math.Abs(varSum-8) > 0.4 {
		t.Errorf("Var = %v, want ≈ 2b² = 8", varSum)
	}
}

func TestExponentialArgmaxAtInfiniteEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scores := []float64{0.1, 0.9, 0.5}
	for i := 0; i < 20; i++ {
		if got := Exponential(rng, scores, 1, math.Inf(1)); got != 1 {
			t.Fatalf("infinite epsilon must return argmax, got %d", got)
		}
	}
}

func TestExponentialPrefersHighScores(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	scores := []float64{0, 1}
	// With sensitivity 1 and ε = 4: P(1)/P(0) = exp(2) ≈ 7.39.
	counts := [2]int{}
	const trials = 50000
	for i := 0; i < trials; i++ {
		counts[Exponential(rng, scores, 1, 4)]++
	}
	ratio := float64(counts[1]) / float64(counts[0])
	want := math.Exp(2)
	if math.Abs(ratio-want)/want > 0.1 {
		t.Errorf("selection ratio = %v, want ≈ %v", ratio, want)
	}
}

func TestExponentialUniformAtTinyEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scores := []float64{0, 100}
	counts := [2]int{}
	const trials = 50000
	for i := 0; i < trials; i++ {
		counts[Exponential(rng, scores, 1e9, 1e-9)]++
	}
	frac := float64(counts[0]) / trials
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("tiny ε/huge sensitivity should be ≈ uniform, got %v", frac)
	}
}

func TestExponentialNumericallyStableWithLargeScores(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	scores := []float64{1e6, 1e6 - 1, 1e6 - 2}
	// Must not overflow or return NaN-driven garbage.
	for i := 0; i < 100; i++ {
		got := Exponential(rng, scores, 1, 1)
		if got < 0 || got > 2 {
			t.Fatalf("index out of range: %d", got)
		}
	}
}

func TestExponentialEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Exponential(rand.New(rand.NewSource(1)), nil, 1, 1)
}

func TestGammaMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct{ shape, scale float64 }{{0.5, 1}, {2, 3}, {7.3, 0.5}} {
		const n = 100000
		var mean float64
		for i := 0; i < n; i++ {
			mean += Gamma(rng, c.shape, c.scale)
		}
		mean /= n
		want := c.shape * c.scale
		if math.Abs(mean-want)/want > 0.05 {
			t.Errorf("Gamma(%v,%v) mean = %v, want ≈ %v", c.shape, c.scale, mean, want)
		}
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	out := make([]float64, 7)
	for trial := 0; trial < 100; trial++ {
		Dirichlet(rng, 0.3, out)
		var sum float64
		for _, v := range out {
			if v < 0 {
				t.Fatal("negative Dirichlet component")
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Dirichlet sum = %v", sum)
		}
	}
}

func TestDirichletSmallAlphaIsSpiky(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	out := make([]float64, 10)
	spiky := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		Dirichlet(rng, 0.1, out)
		for _, v := range out {
			if v > 0.5 {
				spiky++
				break
			}
		}
	}
	if spiky < trials/2 {
		t.Errorf("α = 0.1 should usually concentrate mass; spiky %d/%d", spiky, trials)
	}
}
