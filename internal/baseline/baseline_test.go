package baseline

import (
	"math"
	"math/rand"
	"testing"

	"privbayes/internal/data"
	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
)

func binData(n, d int, seed int64) *dataset.Dataset {
	attrs := make([]dataset.Attribute, d)
	for i := range attrs {
		attrs[i] = dataset.NewCategorical(string(rune('a'+i)), []string{"0", "1"})
	}
	ds := dataset.New(attrs)
	rng := rand.New(rand.NewSource(seed))
	rec := make([]uint16, d)
	for i := 0; i < n; i++ {
		rec[0] = uint16(rng.Intn(2))
		for j := 1; j < d; j++ {
			rec[j] = rec[j-1]
			if rng.Float64() < 0.3 {
				rec[j] = 1 - rec[j]
			}
		}
		ds.Append(rec)
	}
	return ds
}

func avd(ds *dataset.Dataset, src MarginalSource, alpha int) float64 {
	subsets := Subsets(ds.D(), alpha)
	var sum float64
	for _, attrs := range subsets {
		vars := make([]marginal.Var, len(attrs))
		for i, a := range attrs {
			vars[i] = marginal.Var{Attr: a}
		}
		sum += marginal.TVD(marginal.Materialize(ds, vars), src.Marginal(attrs))
	}
	return sum / float64(len(subsets))
}

func TestSubsetsCount(t *testing.T) {
	if got := len(Subsets(6, 3)); got != 20 {
		t.Errorf("C(6,3) = %d, want 20", got)
	}
	if got := len(Subsets(5, 0)); got != 1 {
		t.Errorf("C(5,0) = %d, want 1", got)
	}
	// Each subset sorted and distinct.
	seen := map[string]bool{}
	for _, s := range Subsets(6, 3) {
		if len(s) != 3 {
			t.Fatal("wrong subset size")
		}
		k := keyOf(s)
		if seen[k] {
			t.Fatal("duplicate subset")
		}
		seen[k] = true
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{{6, 3, 20}, {23, 4, 8855}, {16, 4, 1820}, {5, 0, 1}, {5, 6, 0}}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestUniformBaseline(t *testing.T) {
	ds := binData(500, 4, 1)
	u := &Uniform{DS: ds}
	m := u.Marginal([]int{0, 2})
	for _, p := range m.P {
		if math.Abs(p-0.25) > 1e-12 {
			t.Fatalf("uniform marginal cell = %v", p)
		}
	}
}

func TestDatasetSourceIsExact(t *testing.T) {
	ds := binData(500, 4, 2)
	src := &Dataset{DS: ds}
	if got := avd(ds, src, 2); got > 1e-12 {
		t.Errorf("dataset source against itself: AVD = %v", got)
	}
}

func TestLaplaceBaselineConvergesWithEpsilon(t *testing.T) {
	ds := binData(2000, 5, 3)
	rng := rand.New(rand.NewSource(4))
	loose := avd(ds, NewLaplace(ds, 2, 0.05, rng), 2)
	tight := avd(ds, NewLaplace(ds, 2, 1e6, rng), 2)
	if tight > 1e-3 {
		t.Errorf("huge ε should give near-exact marginals, AVD = %v", tight)
	}
	if loose <= tight {
		t.Errorf("AVD at ε=0.05 (%v) should exceed ε=1e6 (%v)", loose, tight)
	}
}

func TestLaplaceBaselineCachesMarginals(t *testing.T) {
	ds := binData(200, 4, 5)
	l := NewLaplace(ds, 2, 1, rand.New(rand.NewSource(6)))
	a := l.Marginal([]int{0, 1})
	b := l.Marginal([]int{0, 1})
	if a != b {
		t.Error("same query must return the cached (consistent) marginal")
	}
}

func TestWHTInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := make([]float64, 16)
	for i := range p {
		p[i] = rng.Float64()
	}
	orig := append([]float64(nil), p...)
	WHT(p)
	InverseWHT(p)
	for i := range p {
		if math.Abs(p[i]-orig[i]) > 1e-12 {
			t.Fatalf("WHT round trip differs at %d: %v vs %v", i, p[i], orig[i])
		}
	}
}

func TestWHTRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WHT(make([]float64, 6))
}

// TestFourierExactAtHugeEpsilon: on all-binary data (NLTCS) every
// attribute is one bit, so FourierEncoded releases one coefficient per
// attribute subset of size at most α, C = Σ_{s≤α} C(d, s), with Laplace
// scale 2C/(nε), and with negligible noise it reconstructs every α-way
// marginal exactly.
func TestFourierExactAtHugeEpsilon(t *testing.T) {
	spec, _ := data.ByName("NLTCS")
	ds := spec.GenerateN(2000)
	const alpha, eps = 3, 1e9
	f := NewFourierEncoded(ds, alpha, eps, rand.New(rand.NewSource(9)))
	c := 0
	for s := 0; s <= alpha; s++ {
		c += len(Subsets(ds.D(), s))
	}
	if want := 2 * float64(c) / (float64(ds.N()) * eps); f.scale != want {
		t.Errorf("Laplace scale %g, want 2C/(nε) = %g with C = %d", f.scale, want, c)
	}
	if got := avd(ds, f, alpha); got > 1e-6 {
		t.Errorf("Fourier with negligible noise: AVD = %v", got)
	}
}

func TestFourierEncodedExactAtHugeEpsilon(t *testing.T) {
	attrs := []dataset.Attribute{
		dataset.NewCategorical("a", []string{"0", "1", "2"}),      // 2 bits
		dataset.NewCategorical("b", []string{"x", "y"}),           // 1 bit
		dataset.NewCategorical("c", []string{"p", "q", "r", "s"}), // 2 bits
		dataset.NewCategorical("d", []string{"0", "1", "2", "3"}), // 2 bits
	}
	ds := dataset.New(attrs)
	rng := rand.New(rand.NewSource(10))
	rec := make([]uint16, 4)
	for i := 0; i < 800; i++ {
		rec[0] = uint16(rng.Intn(3))
		rec[1] = uint16(rng.Intn(2))
		rec[2] = uint16(rng.Intn(4))
		rec[3] = rec[2] // perfectly correlated pair
		ds.Append(rec)
	}
	f := NewFourierEncoded(ds, 2, 1e9, rng)
	if got := avd(ds, f, 2); got > 1e-6 {
		t.Errorf("encoded Fourier with negligible noise: AVD = %v", got)
	}
}

func TestFourierEncodedConsistentCoefficients(t *testing.T) {
	ds := binData(300, 4, 11)
	f := NewFourierEncoded(ds, 2, 0.5, rand.New(rand.NewSource(12)))
	// The single-attribute coefficient for attribute 0 is shared by the
	// (0,1) and (0,2) marginals: their implied Pr[a0=1] must agree.
	m01 := f.Marginal([]int{0, 1})
	m02 := f.Marginal([]int{0, 2})
	p1 := m01.P[2] + m01.P[3] // a0 = 1 cells (row-major, last fastest)
	p2 := m02.P[2] + m02.P[3]
	if math.Abs(p1-p2) > 1e-9 {
		t.Errorf("shared coefficient served inconsistently: %v vs %v", p1, p2)
	}
}

func TestContingencyProjectionExactWithoutNoise(t *testing.T) {
	ds := binData(1000, 5, 13)
	c := NewContingency(ds, 1e9, rand.New(rand.NewSource(14)))
	if got := avd(ds, c, 2); got > 1e-6 {
		t.Errorf("contingency with negligible noise: AVD = %v", got)
	}
}

func TestContingencyDomainCap(t *testing.T) {
	attrs := make([]dataset.Attribute, 30)
	for i := range attrs {
		attrs[i] = dataset.NewCategorical(string(rune('a'+i%26))+"x", []string{"0", "1"})
	}
	ds := dataset.New(attrs)
	ds.Append(make([]uint16, 30))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 2^30 domain")
		}
	}()
	NewContingency(ds, 1, rand.New(rand.NewSource(1)))
}

func TestMWEMBeatsUniformAtLargeEpsilon(t *testing.T) {
	ds := binData(3000, 5, 15)
	rng := rand.New(rand.NewSource(16))
	m := NewMWEM(ds, 2, 1.6, rng)
	mwemErr := avd(ds, m, 2)
	uniErr := avd(ds, &Uniform{DS: ds}, 2)
	if mwemErr >= uniErr {
		t.Errorf("MWEM (%v) should beat Uniform (%v) at ε=1.6", mwemErr, uniErr)
	}
}

func TestMWEMDistributionIsNormalized(t *testing.T) {
	ds := binData(500, 4, 17)
	m := NewMWEM(ds, 2, 0.4, rand.New(rand.NewSource(18)))
	var sum float64
	for _, p := range m.a {
		if p < 0 {
			t.Fatal("negative mass in MWEM distribution")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("MWEM mass = %v", sum)
	}
}
