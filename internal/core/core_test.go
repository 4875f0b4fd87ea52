package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
	"privbayes/internal/score"
)

// chainData builds a binary dataset with a known dependency chain
// a0 -> a1 -> a2 -> a3 (each attribute copies its predecessor with 10%
// flips), plus two independent attributes.
func chainData(n int, seed int64) *dataset.Dataset {
	const d = 6
	attrs := make([]dataset.Attribute, d)
	for i := range attrs {
		attrs[i] = dataset.NewCategorical(string(rune('a'+i)), []string{"0", "1"})
	}
	ds := dataset.New(attrs)
	rng := rand.New(rand.NewSource(seed))
	rec := make([]uint16, d)
	for i := 0; i < n; i++ {
		rec[0] = uint16(rng.Intn(2))
		for j := 1; j < 4; j++ {
			rec[j] = rec[j-1]
			if rng.Float64() < 0.1 {
				rec[j] = 1 - rec[j]
			}
		}
		rec[4] = uint16(rng.Intn(2))
		rec[5] = uint16(rng.Intn(2))
		ds.Append(rec)
	}
	return ds
}

func mixedData(n int, seed int64) *dataset.Dataset {
	h := dataset.NewCategorical("city", []string{"a", "b", "c", "d"})
	h.Hierarchy = dataset.NewHierarchy(4, []int{0, 0, 1, 1})
	attrs := []dataset.Attribute{
		dataset.NewCategorical("x", []string{"0", "1"}),
		h,
		dataset.NewContinuous("v", 0, 8, 4),
	}
	ds := dataset.New(attrs)
	rng := rand.New(rand.NewSource(seed))
	rec := make([]uint16, 3)
	for i := 0; i < n; i++ {
		city := rng.Intn(4)
		x := 0
		if city >= 2 && rng.Float64() < 0.8 {
			x = 1
		}
		rec[0], rec[1], rec[2] = uint16(x), uint16(city), uint16(rng.Intn(4))
		ds.Append(rec)
	}
	return ds
}

func TestUsefulnessLemma48(t *testing.T) {
	// Directly check the formula n·ε₂/((d−k)·2^(k+2)).
	got := Usefulness(21574, 16, 3, 0.14)
	want := 21574.0 * 0.14 / (13 * 32)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Usefulness = %v, want %v", got, want)
	}
}

func TestChooseK(t *testing.T) {
	// Usefulness decreases in k, so ChooseK returns the largest k
	// meeting θ; tiny budgets fall back to k = 0.
	if k := ChooseK(21574, 16, 1.12, 4); k < 4 {
		t.Errorf("large budget chose k = %d, want >= 4", k)
	}
	if k := ChooseK(1000, 16, 0.01, 4); k != 0 {
		t.Errorf("tiny budget chose k = %d, want 0", k)
	}
	// The chosen k must itself satisfy θ (or be 0).
	for _, eps2 := range []float64{0.05, 0.2, 1.0} {
		k := ChooseK(20000, 12, eps2, 4)
		if k > 0 && Usefulness(20000, 12, k, eps2) < 4 {
			t.Errorf("eps2=%v: chosen k=%d violates θ-usefulness", eps2, k)
		}
		if k+1 <= 11 && Usefulness(20000, 12, k+1, eps2) >= 4 {
			t.Errorf("eps2=%v: k=%d not maximal", eps2, k)
		}
	}
}

func TestGreedyBayesBinaryStructure(t *testing.T) {
	ds := chainData(3000, 1)
	sc := score.NewScorer(score.F, ds)
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{1, 2, 3} {
		net, err := greedyBayes(context.Background(), ds.D(), binaryCandidates(ds.D(), k), math.Inf(1), sc, 1, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Validate(ds.D()); err != nil {
			t.Fatalf("k=%d: invalid network: %v", k, err)
		}
		if net.Degree() > k {
			t.Errorf("k=%d: degree %d exceeds k", k, net.Degree())
		}
		// Chain property required by Algorithm 1: the first min(k,i)
		// pairs have FULL parent sets over all previous attributes.
		for i := 1; i <= k && i < len(net.Pairs); i++ {
			if len(net.Pairs[i].Parents) != i {
				t.Errorf("k=%d: pair %d has %d parents, want %d (full set)",
					k, i, len(net.Pairs[i].Parents), i)
			}
		}
		// Pair k+1 must have exactly k parents.
		if len(net.Pairs) > k && len(net.Pairs[k].Parents) != k {
			t.Errorf("k=%d: anchor pair has %d parents", k, len(net.Pairs[k].Parents))
		}
	}
}

func TestGreedyBayesBinaryFindsChain(t *testing.T) {
	ds := chainData(8000, 3)
	sc := score.NewScorer(score.MI, ds)
	net, err := greedyBayes(context.Background(), ds.D(), binaryCandidates(ds.D(), 1), math.Inf(1), sc, 1, rand.New(rand.NewSource(4)), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The non-private greedy Chow-Liu tree must recover the strong
	// chain edges: each of a1..a3 should have its chain neighbor as the
	// parent (whichever side was added first).
	sum := net.SumMI(ds)
	if sum < 1.2 {
		t.Errorf("non-private k=1 network sumMI = %v, want > 1.2 (three strong edges)", sum)
	}
}

func TestGreedyBayesGeneralRespectsCap(t *testing.T) {
	ds := mixedData(5000, 5)
	sc := score.NewScorer(score.R, ds)
	eps2 := 0.07
	net, err := greedyBayes(context.Background(), ds.D(), generalCandidates(ds, 4, eps2, true, 1), math.Inf(1), sc, 1, rand.New(rand.NewSource(6)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(ds.D()); err != nil {
		t.Fatal(err)
	}
	cap0 := GeneralDomainCap(ds.N(), ds.D(), eps2, 4)
	for _, p := range net.Pairs {
		size := float64(ds.Attr(p.X.Attr).Size())
		for _, par := range p.Parents {
			size *= float64(par.Size(ds))
		}
		if size > cap0+1e-9 {
			t.Errorf("pair (%v|%v) marginal has %v cells, cap %v", p.X, p.Parents, size, cap0)
		}
	}
}

func TestNetworkValidateCatchesCycles(t *testing.T) {
	bad := Network{Pairs: []APPair{
		{X: marginal.Var{Attr: 0}, Parents: []marginal.Var{{Attr: 1}}},
		{X: marginal.Var{Attr: 1}},
	}}
	if err := bad.Validate(2); err == nil {
		t.Error("forward-referencing parent must fail validation")
	}
	dup := Network{Pairs: []APPair{
		{X: marginal.Var{Attr: 0}},
		{X: marginal.Var{Attr: 0}},
	}}
	if err := dup.Validate(2); err == nil {
		t.Error("duplicate child must fail validation")
	}
}

// Table 1 of the paper: the N1 network is a valid degree-2 network.
func TestPaperTable1NetworkShape(t *testing.T) {
	// age=0, education=1, workclass=2, title=3, income=4.
	n1 := Network{Pairs: []APPair{
		{X: marginal.Var{Attr: 0}},
		{X: marginal.Var{Attr: 1}, Parents: []marginal.Var{{Attr: 0}}},
		{X: marginal.Var{Attr: 2}, Parents: []marginal.Var{{Attr: 0}, {Attr: 1}}},
		{X: marginal.Var{Attr: 3}, Parents: []marginal.Var{{Attr: 0}, {Attr: 2}}},
		{X: marginal.Var{Attr: 4}, Parents: []marginal.Var{{Attr: 2}, {Attr: 3}}},
	}}
	if err := n1.Validate(5); err != nil {
		t.Fatalf("N1 must validate: %v", err)
	}
	if n1.Degree() != 2 {
		t.Errorf("N1 degree = %d, want 2", n1.Degree())
	}
}

func TestNoisyConditionalsBinaryDerivation(t *testing.T) {
	ds := chainData(4000, 7)
	sc := score.NewScorer(score.F, ds)
	rng := rand.New(rand.NewSource(8))
	k := 2
	net, err := greedyBayes(context.Background(), ds.D(), binaryCandidates(ds.D(), k), math.Inf(1), sc, 1, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Without noise, derived head conditionals must equal direct
	// materialization.
	conds, err := noisyConditionals(context.Background(), marginal.NewMemorySource(ds, 1), net, k, 1.0,
		Options{InfiniteMarginalBudget: true, Parallelism: 1, Rand: rng}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(conds) != ds.D() {
		t.Fatalf("got %d conditionals", len(conds))
	}
	for i := 0; i < k; i++ {
		pair := net.Pairs[i]
		direct := marginal.ConditionalFromJoint(marginal.Materialize(ds, pair.Vars()))
		for j := range direct.P {
			if math.Abs(direct.P[j]-conds[i].P[j]) > 1e-9 {
				t.Fatalf("pair %d: derived conditional differs from direct at %d: %v vs %v",
					i, j, conds[i].P[j], direct.P[j])
			}
		}
	}
}

func TestNoisyConditionalsGeneralShapes(t *testing.T) {
	ds := mixedData(3000, 9)
	sc := score.NewScorer(score.R, ds)
	rng := rand.New(rand.NewSource(10))
	net, err := greedyBayes(context.Background(), ds.D(), generalCandidates(ds, 4, 0.5, true, 1), math.Inf(1), sc, 1, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	conds, err := noisyConditionals(context.Background(), marginal.NewMemorySource(ds, 1), net, 0, 0.5,
		Options{Parallelism: 1, Rand: rng}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range conds {
		if c.X != net.Pairs[i].X {
			t.Fatalf("conditional %d child mismatch", i)
		}
		blocks := len(c.P) / c.XDim
		for b := 0; b < blocks; b++ {
			var s float64
			for x := 0; x < c.XDim; x++ {
				s += c.P[b*c.XDim+x]
			}
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("conditional %d block %d sums to %v", i, b, s)
			}
		}
	}
}

func TestSampleMatchesModelDistribution(t *testing.T) {
	ds := chainData(8000, 11)
	rng := rand.New(rand.NewSource(12))
	m, err := Fit(ds, Options{
		Epsilon: 100, Beta: 0.3, Theta: 4, K: 2,
		Mode: ModeBinary, Score: score.F, Rand: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	syn := m.SampleP(40000, rng, 0)
	// With a huge budget the synthetic pairwise marginal of the chain
	// edge (a0, a1) must be close to the real one.
	vars := []marginal.Var{{Attr: 0}, {Attr: 1}}
	realM := marginal.Materialize(ds, vars)
	synM := marginal.Materialize(syn, vars)
	if tvd := marginal.TVD(realM, synM); tvd > 0.03 {
		t.Errorf("synthetic (a0,a1) marginal TVD = %v, want < 0.03 at ε=100", tvd)
	}
}

func TestSampleWithGeneralizedParents(t *testing.T) {
	ds := mixedData(5000, 13)
	rng := rand.New(rand.NewSource(14))
	m, err := Fit(ds, Options{
		Epsilon: 0.1, Beta: 0.3, Theta: 4,
		Mode: ModeGeneral, Score: score.R, UseHierarchy: true, Rand: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	syn := m.SampleP(1000, rng, 0)
	if syn.N() != 1000 || syn.D() != ds.D() {
		t.Fatalf("synthetic shape %dx%d", syn.N(), syn.D())
	}
	// Every sampled code must be in the raw domain.
	for r := 0; r < syn.N(); r++ {
		for c := 0; c < syn.D(); c++ {
			if syn.Value(r, c) >= syn.Attr(c).Size() {
				t.Fatalf("out-of-domain code at (%d,%d)", r, c)
			}
		}
	}
}
