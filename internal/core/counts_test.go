package core

import (
	"bytes"
	"context"
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

// TestFitCountsScanBudget checks the one-scan-per-iteration promise: an
// out-of-core fit's scan count is bounded by the number of greedy
// iterations plus the initial row-counting pass and the conditional
// materialization pass — not by the number of candidates scored.
func TestFitCountsScanBudget(t *testing.T) {
	ds := chainData(2000, 3)
	src := dataset.DatasetSource(ds, 512)
	p, err := counts.NewProvider(context.Background(), src, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2, Mode: ModeBinary,
		Score: score.F, Parallelism: 2, Rand: rand.New(rand.NewSource(1))}
	if _, err := FitCountsContext(context.Background(), ds.Attrs(), p, opt); err != nil {
		t.Fatal(err)
	}
	scans, _ := p.Stats()
	// d-1 greedy iterations + counting scan + conditionals prefetch,
	// with slack for memo-hit iterations that still prefetch.
	maxScans := int64(ds.D() + 2)
	if scans > maxScans {
		t.Errorf("fit used %d scans, want <= %d (one per greedy iteration)", scans, maxScans)
	}
}

// TestRefitCountsMatchesConditionals: an incremental refit over a
// maintained count store reproduces — byte for byte — the noisy
// conditionals a full-data materialization draws with the same seed and
// network, at both the serial and parallel settings.
func TestRefitCountsMatchesConditionals(t *testing.T) {
	ds := chainData(3000, 7)
	opt := Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2, Mode: ModeBinary,
		Score: score.F, Parallelism: 2, Rand: rand.New(rand.NewSource(21))}
	m, err := Fit(ds, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Maintain a count store the way the curator does: register the
	// network's AP pairs, accumulate chunks as rows arrive.
	st := counts.NewStore(ds.Attrs())
	for _, pair := range m.Network.Pairs {
		if err := st.Register(pair.Parents, []marginal.Var{pair.X}); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < ds.N(); lo += 700 {
		hi := lo + 700
		if hi > ds.N() {
			hi = ds.N()
		}
		if err := st.Accumulate(ds.Slice(lo, hi)); err != nil {
			t.Fatal(err)
		}
	}

	for _, par := range []int{1, 2} {
		refitOpt := Options{Epsilon: 0.56, Mode: ModeBinary, Score: score.F,
			Parallelism: par, Rand: rand.New(rand.NewSource(33))}
		got, err := RefitCountsContext(context.Background(), ds.Attrs(), st.Source(), m.Network, m.K, refitOpt)
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
	st := counts.NewStore(ds.Attrs())
	for _, pair := range m.Network.Pairs {
		if err := st.Register(pair.Parents, []marginal.Var{pair.X}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Accumulate(ds); err != nil {
		t.Fatal(err)
	}
	refit, err := RefitCountsContext(context.Background(), ds.Attrs(), st.Source(), m.Network, -1,
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
	st := counts.NewStore(ds.Attrs())
	if err := st.Accumulate(ds); err != nil {
		t.Fatal(err)
	}
	src := st.Source()
	net := Network{Pairs: []APPair{
		{X: marginal.Var{Attr: 0}}, {X: marginal.Var{Attr: 1}, Parents: []marginal.Var{{Attr: 0}}}}}
	good := Options{Epsilon: 1, Mode: ModeBinary, Score: score.F, Rand: rand.New(rand.NewSource(1))}

	if _, err := RefitCountsContext(context.Background(), ds.Attrs(), src, net, 1, Options{Epsilon: 1, Mode: ModeBinary}); err == nil {
		t.Error("nil rng accepted")
	}
	bad := good
	bad.Rand = rand.New(rand.NewSource(1))
	bad.Epsilon = 0
	if _, err := RefitCountsContext(context.Background(), ds.Attrs(), src, net, 1, bad); err == nil {
		t.Error("zero epsilon accepted")
	}
	empty := counts.NewStore(ds.Attrs())
	if _, err := RefitCountsContext(context.Background(), ds.Attrs(), empty.Source(), net, 1, good); err == nil {
		t.Error("empty source accepted")
	}
	if _, err := RefitCountsContext(context.Background(), ds.Attrs(), src, net, 99, good); err == nil {
		t.Error("out-of-range anchor degree accepted")
	}
	badNet := Network{Pairs: []APPair{{X: marginal.Var{Attr: 42}}}}
	if _, err := RefitCountsContext(context.Background(), ds.Attrs(), src, badNet, 0, good); err == nil {
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

// prefetchProbe is a batchable in-memory source that records, for each
// Prefetch, whether the marginals phase had opened by then.
type prefetchProbe struct {
	*marginal.MemorySource
	marginalsOpen bool
	opened        []bool
}

func (p *prefetchProbe) Prefetch(context.Context, []marginal.CountRequest) error {
	p.opened = append(p.opened, p.marginalsOpen)
	return nil
}

// TestDistributionPrefetchInMarginalsPhase checks the distribution
// phase's batched prefetch — a full scan out of core — runs after the
// marginals phase opens, so progress and phase timings account for it,
// while every scoring prefetch runs before.
func TestDistributionPrefetchInMarginalsPhase(t *testing.T) {
	cases := []struct {
		name string
		ds   *dataset.Dataset
		opt  Options
	}{
		{"binary", chainData(2000, 13), Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2,
			Mode: ModeBinary, Score: score.F}},
		{"general", mixedData(2000, 14), Options{Epsilon: 0.8, Beta: 0.3, Theta: 4,
			Mode: ModeGeneral, Score: score.R, UseHierarchy: true}},
	}
	for _, tc := range cases {
		probe := &prefetchProbe{MemorySource: marginal.NewMemorySource(tc.ds, 2)}
		opt := tc.opt
		opt.Parallelism = 2
		opt.Rand = rand.New(rand.NewSource(15))
		opt.Progress = func(ev ProgressEvent) {
			if ev.Phase == PhaseMarginals && ev.Done == 0 {
				probe.marginalsOpen = true
			}
		}
		if _, err := FitCountsContext(context.Background(), tc.ds.Attrs(), probe, opt); err != nil {
			t.Fatal(err)
		}
		n := len(probe.opened)
		if n < 2 {
			t.Fatalf("%s: %d prefetches, want scoring and distribution prefetches", tc.name, n)
		}
		if !probe.opened[n-1] {
			t.Errorf("%s: distribution prefetch ran before the marginals phase opened", tc.name)
		}
		for i, open := range probe.opened[:n-1] {
			if open {
				t.Errorf("%s: scoring prefetch %d ran inside the marginals phase", tc.name, i)
			}
		}
	}
}
