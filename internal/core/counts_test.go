package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"privbayes/internal/counts"
	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
	"privbayes/internal/score"
)

// countsFitJSON fits through FitCountsContext over a scan-backed count
// provider re-reading ds in chunks of chunkRows, and returns the
// serialized model bytes.
func countsFitJSON(t *testing.T, ds *dataset.Dataset, opt Options, chunkRows, parallelism int) []byte {
	t.Helper()
	src := dataset.DatasetSource(ds, chunkRows)
	p, err := counts.NewProvider(context.Background(), src, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FitCountsContext(context.Background(), ds.Attrs(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf, opt.Epsilon); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFitCountsBitIdenticalToInMemory is the out-of-core contract: a fit
// whose every data access goes through chunked count tables produces
// the byte-identical model an in-memory fit produces from the same rows
// — for both algorithm families, at every parallelism, and regardless
// of chunk geometry.
func TestFitCountsBitIdenticalToInMemory(t *testing.T) {
	cases := []struct {
		name string
		ds   *dataset.Dataset
		opt  Options
	}{
		{"binary", chainData(3000, 7), Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2,
			Mode: ModeBinary, Score: score.F}},
		{"general", mixedData(3000, 8), Options{Epsilon: 0.8, Beta: 0.3, Theta: 4,
			Mode: ModeGeneral, Score: score.R, UseHierarchy: true}},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 2, 4} {
			opt := tc.opt
			opt.Parallelism = par
			opt.Rand = rand.New(rand.NewSource(11))
			m, err := Fit(tc.ds, opt)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.WriteJSON(&buf, opt.Epsilon); err != nil {
				t.Fatal(err)
			}
			want := buf.Bytes()
			for _, chunk := range []int{100, 999, 1 << 16} {
				opt.Rand = rand.New(rand.NewSource(11))
				got := countsFitJSON(t, tc.ds, opt, chunk, par)
				if !bytes.Equal(got, want) {
					t.Errorf("%s: counts fit (chunk %d, parallelism %d) differs from in-memory fit", tc.name, chunk, par)
				}
			}
		}
	}
}

// TestFitCountsScanBudget checks the one-read promise: an out-of-core
// fit opens its source exactly once, whatever the number of greedy
// iterations and candidates scored.
func TestFitCountsScanBudget(t *testing.T) {
	ds := chainData(2000, 3)
	inner := dataset.DatasetSource(ds, 512)
	opens := 0
	src := &dataset.ChunkSource{Attrs: inner.Attrs, ChunkRows: inner.ChunkRows, Open: func() (dataset.Scanner, error) {
		opens++
		return inner.Open()
	}}
	p, err := counts.NewProvider(context.Background(), src, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2, Mode: ModeBinary,
		Score: score.F, Parallelism: 2, Rand: rand.New(rand.NewSource(1))}
	if _, err := FitCountsContext(context.Background(), ds.Attrs(), p, opt); err != nil {
		t.Fatal(err)
	}
	if opens != 1 {
		t.Errorf("fit opened its source %d times, want 1", opens)
	}
}

// TestRefitCountsMatchesConditionals: an incremental refit over rows
// appended batch by batch, as the curator holds them, reproduces —
// byte for byte — the noisy conditionals a full-data materialization
// draws with the same seed and network, at both the serial and
// parallel settings.
func TestRefitCountsMatchesConditionals(t *testing.T) {
	ds := chainData(3000, 7)
	opt := Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2, Mode: ModeBinary,
		Score: score.F, Parallelism: 2, Rand: rand.New(rand.NewSource(21))}
	m, err := Fit(ds, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Hold the rows the way the curator does: each 700-row batch
	// appended, as it arrives, to one packed dataset.
	rows, err := dataset.Drain(context.Background(), dataset.DatasetSource(ds, 700))
	if err != nil {
		t.Fatal(err)
	}

	for _, par := range []int{1, 2} {
		refitOpt := Options{Epsilon: 0.56, Mode: ModeBinary, Score: score.F,
			Parallelism: par, Rand: rand.New(rand.NewSource(33))}
		got, err := RefitCountsContext(context.Background(), ds.Attrs(), marginal.NewMemorySource(rows, par), m.Network, m.K, refitOpt)
		if err != nil {
			t.Fatal(err)
		}
		wantConds, err := noisyConditionals(context.Background(), marginal.NewMemorySource(ds, par), m.Network, m.K, 0.56,
			Options{Parallelism: par, Rand: rand.New(rand.NewSource(33))}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var gotBuf, wantBuf bytes.Buffer
		if err := got.WriteJSON(&gotBuf, 0.56); err != nil {
			t.Fatal(err)
		}
		want := &Model{Attrs: m.Attrs, Score: m.Score, K: m.K, Network: m.Network, Conds: wantConds}
		if err := want.WriteJSON(&wantBuf, 0.56); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
			t.Errorf("parallelism %d: incremental refit differs from full-data conditionals", par)
		}
	}
}

// TestRefitCountsGeneralMode exercises the general-mode branch and the
// sampling path of a refit model end to end.
func TestRefitCountsGeneralMode(t *testing.T) {
	ds := mixedData(2000, 5)
	opt := Options{Epsilon: 1, Beta: 0.3, Theta: 4, Mode: ModeGeneral,
		Score: score.R, UseHierarchy: true, Parallelism: 2, Rand: rand.New(rand.NewSource(9))}
	m, err := Fit(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	refit, err := RefitCountsContext(context.Background(), ds.Attrs(), marginal.NewMemorySource(ds, 2), m.Network, -1,
		Options{Epsilon: 0.7, Mode: ModeGeneral, Score: score.R, Parallelism: 2, Rand: rand.New(rand.NewSource(10))})
	if err != nil {
		t.Fatal(err)
	}
	out := refit.SampleP(500, rand.New(rand.NewSource(11)), 2)
	if out.N() != 500 || out.D() != ds.D() {
		t.Fatalf("refit sample shape %dx%d, want 500x%d", out.N(), out.D(), ds.D())
	}
}

// TestRefitCountsValidation covers the error paths: nil rng, bad
// epsilon, empty source, invalid network, bad anchor degree.
func TestRefitCountsValidation(t *testing.T) {
	ds := chainData(200, 1)
	st := marginal.NewMemorySource(ds, 2)
	net := Network{Pairs: []APPair{
		{X: marginal.Var{Attr: 0}}, {X: marginal.Var{Attr: 1}, Parents: []marginal.Var{{Attr: 0}}}}}
	good := Options{Epsilon: 1, Mode: ModeBinary, Score: score.F, Rand: rand.New(rand.NewSource(1))}

	if _, err := RefitCountsContext(context.Background(), ds.Attrs(), st, net, 1, Options{Epsilon: 1, Mode: ModeBinary}); err == nil {
		t.Error("nil rng accepted")
	}
	for _, eps := range []float64{0, math.NaN(), math.Inf(1)} {
		bad := good
		bad.Rand = rand.New(rand.NewSource(1))
		bad.Epsilon = eps
		if _, err := RefitCountsContext(context.Background(), ds.Attrs(), st, net, 1, bad); err == nil {
			t.Errorf("epsilon %g accepted", eps)
		}
	}
	empty := marginal.NewMemorySource(dataset.New(ds.Attrs()), 2)
	if _, err := RefitCountsContext(context.Background(), ds.Attrs(), empty, net, 1, good); err == nil {
		t.Error("empty source accepted")
	}
	if _, err := RefitCountsContext(context.Background(), ds.Attrs(), st, net, 99, good); err == nil {
		t.Error("out-of-range anchor degree accepted")
	}
	badNet := Network{Pairs: []APPair{{X: marginal.Var{Attr: 42}}}}
	if _, err := RefitCountsContext(context.Background(), ds.Attrs(), st, badNet, 0, good); err == nil {
		t.Error("invalid network accepted")
	}
}

// TestSuppliedScorerGuard checks fitModel accepts a supplied scorer
// only when it computes the fit's score function over the fit's rows,
// through either entry point — and that an accepted in-memory scorer
// changes nothing in the model.
func TestSuppliedScorerGuard(t *testing.T) {
	ds := chainData(1500, 5)
	p, err := counts.NewProvider(context.Background(), dataset.DatasetSource(ds, 500), 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := counts.NewProvider(context.Background(), dataset.DatasetSource(ds, 500), 2)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2, Mode: ModeBinary,
		Score: score.F, Parallelism: 2}
	fit := func(sc *score.Scorer, outOfCore bool) ([]byte, error) {
		opt := base
		opt.Scorer = sc
		opt.Rand = rand.New(rand.NewSource(3))
		var m *Model
		var err error
		if outOfCore {
			m, err = FitCountsContext(context.Background(), ds.Attrs(), p, opt)
		} else {
			m, err = FitContext(context.Background(), ds, opt)
		}
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf, opt.Epsilon); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), nil
	}
	want, err := fit(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		scorer    *score.Scorer
		outOfCore bool
		ok        bool
	}{
		{"wrong function in memory", score.NewScorerSized(score.MI, ds, 0), false, false},
		{"wrong function out of core", score.NewScorerCounts(score.MI, ds.Attrs(), p, 0), true, false},
		{"count-source scorer in memory", score.NewScorerCounts(score.F, ds.Attrs(), p, 0), false, false},
		{"other source out of core", score.NewScorerCounts(score.F, ds.Attrs(), other, 0), true, false},
		{"other dataset in memory", score.NewScorerSized(score.F, chainData(1500, 5), 0), false, false},
		{"same dataset in memory", score.NewScorerSized(score.F, ds, 0), false, true},
		{"same source out of core", score.NewScorerCounts(score.F, ds.Attrs(), p, 0), true, true},
	}
	for _, tc := range cases {
		got, err := fit(tc.scorer, tc.outOfCore)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.ok && !bytes.Equal(got, want):
			t.Errorf("%s: model differs from a fit without a supplied scorer", tc.name)
		case !tc.ok && err == nil:
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
