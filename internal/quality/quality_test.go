package quality

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"privbayes/internal/core"
	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
)

// smallOptions is a fast sweep for tests: one scenario, two budgets,
// few rows.
func smallOptions() Options {
	return Options{
		Scenarios:   []Scenario{RandomScenario("t-rand", 6, []int{2, 3}, 2, 0.3, 99)},
		Eps:         []float64{0.5, 5},
		TrainRows:   600,
		TestRows:    300,
		SynthRows:   600,
		Parallelism: 2,
	}
}

// TestRunDeterministic is the gate's own contract: two runs of the same
// options must serialize to byte-identical reports.
func TestRunDeterministic(t *testing.T) {
	var docs [][]byte
	for i := 0; i < 2; i++ {
		rep, err := Run(context.Background(), smallOptions())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, b)
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatalf("reports differ across identical runs:\n%s\n%s", docs[0], docs[1])
	}
}

// TestRunParallelismInvariant: the determinism contract says every
// parallelism is bit-identical, so the quality report must not depend
// on the worker bound.
func TestRunParallelismInvariant(t *testing.T) {
	results := func(par int) []byte {
		opt := smallOptions()
		opt.Parallelism = par
		r, err := Run(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(r.Results)
		return b
	}
	want := results(2)
	for _, par := range []int{1, 4} {
		if got := results(par); !bytes.Equal(got, want) {
			t.Fatalf("results differ between parallelism 2 and %d:\n%s\n%s", par, want, got)
		}
	}
}

// TestGateTripsOnBrokenSampler: a deliberately broken sampler must fail
// the calibrated thresholds — the acceptance test of the CI gate.
func TestGateTripsOnBrokenSampler(t *testing.T) {
	opt := smallOptions()
	opt.BreakSampler = true
	opt.Thresholds = map[string][]Limits{
		// Limits far looser than the healthy sampler achieves, so only
		// genuine breakage trips them.
		"t-rand": {
			{Eps: 0.5, MaxTVD2: 0.25},
			{Eps: 5, MaxTVD2: 0.25},
		},
	}
	rep, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("broken sampler passed the gate")
	}
	for _, r := range rep.Results {
		if len(r.Failures) == 0 {
			t.Errorf("%s ε=%g: broken sampler produced no failures", r.Scenario, r.Epsilon)
		}
	}

	// The identical options with an intact sampler must pass.
	opt.BreakSampler = false
	rep, err = Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		b, _ := json.MarshalIndent(rep.Results, "", " ")
		t.Fatalf("healthy sampler failed the gate:\n%s", b)
	}
}

// TestTVDSourcePaths: the default sweep answers TVD by exact inference
// and records it; -sample-tvd restores the empirical path, which also
// gates (and also trips under sabotage). The exact metric never exceeds
// the sampled one by more than the sampling error it removes.
func TestTVDSourcePaths(t *testing.T) {
	exact, err := Run(context.Background(), smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if exact.TVDSource != "exact" {
		t.Fatalf("default TVD source = %q, want exact", exact.TVDSource)
	}
	optS := smallOptions()
	optS.SampleTVD = true
	sampled, err := Run(context.Background(), optS)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.TVDSource != "sampled" {
		t.Fatalf("sampled TVD source = %q, want sampled", sampled.TVDSource)
	}
	for i := range exact.Results {
		e, s := exact.Results[i], sampled.Results[i]
		// Same fits, same models: the two paths measure the same release,
		// so they must be close; exact removes only the sampling error.
		if diff := e.TVD2 - s.TVD2; diff > 0.1 || diff < -0.1 {
			t.Errorf("%s ε=%g: exact TVD2 %.4f vs sampled %.4f", e.Scenario, e.Epsilon, e.TVD2, s.TVD2)
		}
		// SVM and structure are unaffected by the TVD source.
		if e.SVMError != s.SVMError || e.Structure != s.Structure {
			t.Errorf("%s ε=%g: non-TVD metrics changed with the TVD source", e.Scenario, e.Epsilon)
		}
	}

	// The sampled path's sabotage self-test must trip as well.
	optS.BreakSampler = true
	optS.Thresholds = map[string][]Limits{
		"t-rand": {{Eps: 0.5, MaxTVD2: 0.25}, {Eps: 5, MaxTVD2: 0.25}},
	}
	rep, err := Run(context.Background(), optS)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("sampled-path sabotage passed the gate")
	}
}

// TestDefaultThresholdsCoverSweep: every default scenario carries a
// limit row for every swept ε — a typo'd scenario name or ε would
// silently disable the gate.
func TestDefaultThresholdsCoverSweep(t *testing.T) {
	th := DefaultThresholds()
	for _, sc := range DefaultScenarios() {
		rows, ok := th[sc.Name]
		if !ok {
			t.Errorf("scenario %q has no thresholds", sc.Name)
			continue
		}
		for _, eps := range DefaultEps {
			found := false
			for _, l := range rows {
				if l.Eps == eps {
					found = true
				}
			}
			if !found {
				t.Errorf("scenario %q has no limits at ε=%g", sc.Name, eps)
			}
		}
	}
}

// TestMarginalTVDIdentity: a dataset against itself has zero distance,
// and the broken sampler's output has a large one.
func TestMarginalTVDIdentity(t *testing.T) {
	sc := NLTCSLikeScenario()
	train, _ := sc.Generate(500, 1)
	if tvd := MarginalTVD(train, train, 2, 2); tvd != 0 {
		t.Fatalf("TVD(ds, ds) = %g, want 0", tvd)
	}
	broken := uniformResample(train, 7)
	if tvd := MarginalTVD(train, broken, 2, 2); tvd < 0.1 {
		t.Fatalf("TVD against uniform resample = %g, want substantial", tvd)
	}
}

// TestScenarioGenerateDeterministic: same sizes, same bytes; train and
// holdout must differ (disjoint stream positions).
func TestScenarioGenerateDeterministic(t *testing.T) {
	sc := AdultLikeScenario()
	tr1, te1 := sc.Generate(200, 100)
	tr2, te2 := sc.Generate(200, 100)
	if !sameData(tr1, tr2) || !sameData(te1, te2) {
		t.Fatal("repeated Generate differs")
	}
	if tr1.N() != 200 || te1.N() != 100 {
		t.Fatalf("sizes %d/%d, want 200/100", tr1.N(), te1.N())
	}
}

func TestStructureRecovery(t *testing.T) {
	net := func(edges ...[2]int) *core.Network {
		// Build a network whose pair list carries exactly these
		// (parent -> child) edges.
		children := map[int][]marginal.Var{}
		order := []int{}
		seen := map[int]bool{}
		add := func(a int) {
			if !seen[a] {
				seen[a] = true
				order = append(order, a)
			}
		}
		for _, e := range edges {
			add(e[0])
			add(e[1])
			children[e[1]] = append(children[e[1]], marginal.Var{Attr: e[0]})
		}
		n := &core.Network{}
		for _, a := range order {
			n.Pairs = append(n.Pairs, core.APPair{X: marginal.Var{Attr: a}, Parents: children[a]})
		}
		return n
	}
	cases := []struct {
		name          string
		truth         [][2]int
		learned       *core.Network
		prec, rec, f1 float64
	}{
		{"exact", [][2]int{{0, 1}, {1, 2}}, net([2]int{0, 1}, [2]int{1, 2}), 1, 1, 1},
		{"reversed edges count", [][2]int{{0, 1}}, net([2]int{1, 0}), 1, 1, 1},
		{"half recalled", [][2]int{{0, 1}, {1, 2}}, net([2]int{0, 1}), 1, 0.5, 2.0 / 3},
		{"spurious edge", [][2]int{{0, 1}}, net([2]int{0, 1}, [2]int{0, 2}), 0.5, 1, 2.0 / 3},
		{"empty truth", nil, net([2]int{0, 1}), 0, 1, 0},
	}
	for _, tc := range cases {
		r := StructureRecovery(tc.truth, tc.learned)
		if r.Precision != tc.prec || r.Recall != tc.rec || !approxEq(r.F1, tc.f1) {
			t.Errorf("%s: got p=%g r=%g f1=%g, want p=%g r=%g f1=%g",
				tc.name, r.Precision, r.Recall, r.F1, tc.prec, tc.rec, tc.f1)
		}
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

// sameData compares two datasets cell by cell.
func sameData(a, b *dataset.Dataset) bool {
	if a.N() != b.N() || a.D() != b.D() {
		return false
	}
	for r := 0; r < a.N(); r++ {
		for c := 0; c < a.D(); c++ {
			if a.Value(r, c) != b.Value(r, c) {
				return false
			}
		}
	}
	return true
}

// TestLimitsCheck exercises every gated metric plus the unenforced-zero
// convention.
func TestLimitsCheck(t *testing.T) {
	ls := limitSet{{Eps: 1, MaxTVD2: 0.1, MaxTVD3: 0.2, MaxSVMError: 0.3, MinEdgeF1: 0.5}}
	bad := Result{Epsilon: 1, TVD2: 0.2, TVD3: 0.3, SVMError: 0.4, Structure: Recovery{F1: 0.1}}
	if got := ls.check(bad); len(got) != 4 {
		t.Fatalf("want 4 violations, got %v", got)
	}
	good := Result{Epsilon: 1, TVD2: 0.05, TVD3: 0.1, SVMError: 0.2, Structure: Recovery{F1: 0.9}}
	if got := ls.check(good); len(got) != 0 {
		t.Fatalf("want clean, got %v", got)
	}
	otherEps := Result{Epsilon: 2, TVD2: 0.9}
	if got := ls.check(otherEps); len(got) != 0 {
		t.Fatalf("unconfigured ε must pass, got %v", got)
	}
	unenforced := limitSet{{Eps: 1}}
	if got := unenforced.check(bad); len(got) != 0 {
		t.Fatalf("zero limits must not gate, got %v", got)
	}
	if !ls.covers(1) || ls.covers(2) || limitSet(nil).covers(1) {
		t.Fatal("covers must report exactly the configured ε rows")
	}
}

// TestRandomScenarioGuaranteesBinaryTarget: arities without 2 still
// produce a binary classification target — including when d is too
// small for the cycled arities to ever reach one (regression: this
// used to panic with index out of range [-1]).
func TestRandomScenarioGuaranteesBinaryTarget(t *testing.T) {
	cases := []struct {
		d       int
		arities []int
	}{
		{5, []int{3, 4}},
		{3, []int{3, 4, 5}}, // d <= len(arities), no 2 anywhere
		{1, []int{7}},
		{4, nil},
	}
	for _, tc := range cases {
		sc := RandomScenario("odd", tc.d, tc.arities, 2, 0.3, 5)
		idx := -1
		attrs := sc.Truth.Attrs()
		for i := range attrs {
			if attrs[i].Name == sc.Task.Attr {
				idx = i
			}
		}
		if idx < 0 {
			t.Fatalf("d=%d arities=%v: task attribute %q not in schema", tc.d, tc.arities, sc.Task.Attr)
		}
		if attrs[idx].Size() != 2 {
			t.Fatalf("d=%d arities=%v: target arity %d, want 2", tc.d, tc.arities, attrs[idx].Size())
		}
	}
}
