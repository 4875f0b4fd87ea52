package privbayes

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"
)

func toyData(n int, seed int64) *Dataset {
	attrs := []Attribute{
		NewCategorical("a", []string{"0", "1"}),
		NewCategorical("b", []string{"0", "1"}),
		NewContinuous("c", 0, 8, 4),
	}
	ds := NewDataset(attrs)
	rng := rand.New(rand.NewSource(seed))
	rec := make([]uint16, 3)
	for i := 0; i < n; i++ {
		a := rng.Intn(2)
		b := a
		if rng.Float64() < 0.15 {
			b = 1 - a
		}
		rec[0], rec[1], rec[2] = uint16(a), uint16(b), uint16(rng.Intn(4))
		ds.Append(rec)
	}
	return ds
}

func TestSynthesizeRoundTrip(t *testing.T) {
	ds := toyData(5000, 1)
	syn, err := Synthesize(context.Background(), ds, WithEpsilon(1), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if syn.N() != ds.N() || syn.D() != ds.D() {
		t.Fatalf("synthetic shape %dx%d", syn.N(), syn.D())
	}
}

func TestSynthesizePreservesStrongCorrelation(t *testing.T) {
	ds := toyData(20000, 3)
	syn, err := Synthesize(context.Background(), ds, WithEpsilon(2), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	agree := func(d *Dataset) float64 {
		c := 0
		for r := 0; r < d.N(); r++ {
			if d.Value(r, 0) == d.Value(r, 1) {
				c++
			}
		}
		return float64(c) / float64(d.N())
	}
	real, got := agree(ds), agree(syn)
	if math.Abs(real-got) > 0.05 {
		t.Errorf("P(a=b): real %v, synthetic %v", real, got)
	}
}

func TestFitRequiresEpsilon(t *testing.T) {
	ds := toyData(100, 5)
	if _, err := Fit(context.Background(), ds, WithSeed(1)); err == nil {
		t.Fatal("missing WithEpsilon must error")
	}
}

func TestFitRejectsBadEpsilon(t *testing.T) {
	ds := toyData(100, 6)
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := Fit(context.Background(), ds, WithEpsilon(eps), WithSeed(1)); err == nil {
			t.Errorf("epsilon %g must error", eps)
		}
	}
}

func TestFitRejectsBadOptions(t *testing.T) {
	ds := toyData(100, 6)
	cases := map[string][]Option{
		"beta 0":      {WithEpsilon(1), WithBeta(0)},
		"beta 1":      {WithEpsilon(1), WithBeta(1)},
		"beta NaN":    {WithEpsilon(1), WithBeta(math.NaN())},
		"theta 0":     {WithEpsilon(1), WithTheta(0)},
		"theta NaN":   {WithEpsilon(1), WithTheta(math.NaN())},
		"theta +Inf":  {WithEpsilon(1), WithTheta(math.Inf(1))},
		"score junk":  {WithEpsilon(1), WithScore(ScoreFunction(42))},
		"score F gen": {WithEpsilon(1), WithScore(ScoreF)}, // non-binary data
	}
	for name, opts := range cases {
		if _, err := Fit(context.Background(), ds, opts...); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestExplicitScoreOverride(t *testing.T) {
	ds := toyData(500, 7)
	m, err := Fit(context.Background(), ds, WithEpsilon(1), WithScore(ScoreMI), WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	if ModelScore(m) != ScoreMI {
		t.Errorf("score = %v, want MI", ModelScore(m))
	}
}

func TestBinaryDataUsesFAutomatically(t *testing.T) {
	attrs := []Attribute{
		NewCategorical("a", []string{"0", "1"}),
		NewCategorical("b", []string{"0", "1"}),
	}
	ds := NewDataset(attrs)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		ds.Append([]uint16{uint16(rng.Intn(2)), uint16(rng.Intn(2))})
	}
	m, err := Fit(context.Background(), ds, WithEpsilon(1), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if ModelScore(m) != ScoreF {
		t.Errorf("all-binary data should default to score F, got %v", ModelScore(m))
	}
}

func TestGeneralDataUsesRAutomatically(t *testing.T) {
	ds := toyData(500, 10)
	m, err := Fit(context.Background(), ds, WithEpsilon(1), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if ModelScore(m) != ScoreR {
		t.Errorf("general data should default to score R, got %v", ModelScore(m))
	}
}

func TestModelSampleArbitrarySize(t *testing.T) {
	ds := toyData(2000, 12)
	m, err := Fit(context.Background(), ds, WithEpsilon(1), WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	syn := m.SampleP(123, rand.New(rand.NewSource(13)), 0)
	if syn.N() != 123 {
		t.Errorf("sample size %d, want 123", syn.N())
	}
}

func TestSaveLoadModel(t *testing.T) {
	ds := toyData(2000, 20)
	m, err := Fit(context.Background(), ds, WithEpsilon(1), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, m, 1.0); err != nil {
		t.Fatal(err)
	}
	back, eps, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if eps != 1.0 {
		t.Errorf("epsilon metadata = %v", eps)
	}
	syn := back.SampleP(100, rand.New(rand.NewSource(22)), 0)
	if syn.N() != 100 || syn.D() != ds.D() {
		t.Errorf("reloaded model sample shape %dx%d", syn.N(), syn.D())
	}
}

func TestConsistencyOptionRuns(t *testing.T) {
	ds := toyData(3000, 22)
	syn, err := Synthesize(context.Background(), ds,
		WithEpsilon(0.2), WithConsistency(true), WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	if syn.N() != ds.N() {
		t.Error("consistency run lost rows")
	}
}

func TestCryptoDefaultSourceStillDeterministicPerRun(t *testing.T) {
	// Without a seed the run draws a cryptographic source; two runs
	// should (overwhelmingly) differ, while a captured CryptoSource
	// replays exactly.
	src := CryptoSource()
	ds := toyData(2000, 30)
	a, err := Fit(context.Background(), ds, WithEpsilon(1), WithSource(src))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(context.Background(), ds, WithEpsilon(1), WithSource(src))
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb bytes.Buffer
	SaveModel(&ab, a, 1)
	SaveModel(&bb, b, 1)
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Error("same CryptoSource must replay to an identical model")
	}
	if NewSource(src.Seed()).Seed() != src.Seed() {
		t.Error("Seed round-trip")
	}
}

func TestFitterReuseAndOverrides(t *testing.T) {
	f, err := NewFitter(WithEpsilon(1), WithSeed(40))
	if err != nil {
		t.Fatal(err)
	}
	ds := toyData(2000, 41)
	a, err := f.Fit(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	// The per-call override changes only what it names.
	b, err := f.Fit(context.Background(), ds, WithSeed(40))
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb bytes.Buffer
	SaveModel(&ab, a, 1)
	SaveModel(&bb, b, 1)
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Error("identical fitter options must reproduce the model")
	}
	if _, err := NewFitter(WithBeta(0.3)); err == nil {
		t.Error("NewFitter without WithEpsilon must error")
	}
}

func TestSessionSharesScoreCache(t *testing.T) {
	ds := toyData(4000, 50)
	s, err := NewSession(ds, WithEpsilon(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Dataset() != ds {
		t.Fatal("Dataset accessor")
	}
	// Two fits with different seeds share one scorer; results must
	// match independent fits with the same seeds exactly.
	for _, seed := range []int64{51, 52} {
		got, err := s.Fit(context.Background(), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		want, err := Fit(context.Background(), ds, WithEpsilon(1), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		var gb, wb bytes.Buffer
		SaveModel(&gb, got, 1)
		SaveModel(&wb, want, 1)
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Errorf("seed %d: session fit differs from standalone fit", seed)
		}
	}
	syn, err := s.Synthesize(context.Background(), 500, WithSeed(53))
	if err != nil {
		t.Fatal(err)
	}
	if syn.N() != 500 {
		t.Errorf("session synthesize rows = %d", syn.N())
	}
}

func TestProgressEventsOrdered(t *testing.T) {
	ds := toyData(3000, 60)
	var events []Progress
	_, err := Synthesize(context.Background(), ds,
		WithEpsilon(1), WithSeed(61),
		WithProgress(func(p Progress) { events = append(events, p) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	phases := map[Phase]bool{}
	last := map[Phase]int{}
	for _, e := range events {
		phases[e.Phase] = true
		if e.Done < last[e.Phase] {
			t.Fatalf("phase %v: Done went backwards (%d after %d)", e.Phase, e.Done, last[e.Phase])
		}
		last[e.Phase] = e.Done
		if e.Done > e.Total {
			t.Fatalf("phase %v: Done %d > Total %d", e.Phase, e.Done, e.Total)
		}
	}
	for _, ph := range []Phase{PhaseNetwork, PhaseMarginals, PhaseSampling} {
		if !phases[ph] {
			t.Errorf("phase %v never reported", ph)
		}
		if last[ph] == 0 {
			t.Errorf("phase %v never completed a unit", ph)
		}
	}
	if last[PhaseSampling] != ds.N() {
		t.Errorf("sampling reported %d of %d rows", last[PhaseSampling], ds.N())
	}
}
