// Package data generates the four evaluation datasets. The paper uses
// NLTCS, an IPUMS ACS extract, the UCI Adult extract and a Brazilian
// census extract (BR2000); none is redistributable here, so this package
// builds seeded synthetic equivalents with the same shape as Table 5 —
// matching cardinality, dimensionality and per-attribute domain sizes —
// sampled from fixed ground-truth Bayesian networks of degree 2 so the
// attributes carry genuine low-dimensional correlation structure.
package data

import (
	"math/rand"

	"privbayes/internal/dataset"
	"privbayes/internal/dp"
)

// GroundTruth is a fixed generative Bayesian network with fully known
// structure and conditionals, used to sample synthetic source datasets.
// Because the structure is known, downstream evaluation (see
// internal/quality) can score a learned network's edge recovery against
// it — something no real-world dataset permits.
type GroundTruth struct {
	attrs   []dataset.Attribute
	order   []int   // topological sampling order over attribute indices
	parents [][]int // parents[i] = attribute indices, already sampled
	conds   [][]float64
	// conds[i] is laid out as blocks of |dom(X_order[i])| per parent
	// configuration (row-major over parents in parents[i] order).
}

// NewGroundTruth builds a random degree-maxParents network in a seeded
// way: the attribute order is shuffled, each attribute receives up to
// maxParents random earlier attributes as parents, and every conditional
// block is drawn from a symmetric Dirichlet(alpha). Small alpha yields
// spiky conditionals, i.e. strong correlations.
func NewGroundTruth(attrs []dataset.Attribute, maxParents int, alpha float64, rng *rand.Rand) *GroundTruth {
	d := len(attrs)
	g := &GroundTruth{attrs: attrs, order: rng.Perm(d)}
	g.parents = make([][]int, d)
	g.conds = make([][]float64, d)
	for pos, a := range g.order {
		np := maxParents
		if pos < np {
			np = pos
		}
		if np > 0 {
			// Choose np distinct earlier attributes.
			perm := rng.Perm(pos)[:np]
			ps := make([]int, np)
			for i, j := range perm {
				ps[i] = g.order[j]
			}
			g.parents[pos] = ps
		}
		blocks := 1
		for _, p := range g.parents[pos] {
			blocks *= attrs[p].Size()
		}
		xDim := attrs[a].Size()
		cond := make([]float64, blocks*xDim)
		for b := 0; b < blocks; b++ {
			dp.Dirichlet(rng, alpha, cond[b*xDim:(b+1)*xDim])
		}
		g.conds[pos] = cond
	}
	return g
}

// Attrs returns the network's schema.
func (g *GroundTruth) Attrs() []dataset.Attribute { return g.attrs }

// Edges returns the network's directed edge set as (parent, child)
// attribute-index pairs, in a deterministic order.
func (g *GroundTruth) Edges() [][2]int {
	var edges [][2]int
	for pos, child := range g.order {
		for _, p := range g.parents[pos] {
			edges = append(edges, [2]int{p, child})
		}
	}
	return edges
}

// Sample draws n records by ancestral sampling.
func (g *GroundTruth) Sample(n int, rng *rand.Rand) *dataset.Dataset {
	out := dataset.NewWithCapacity(g.attrs, n)
	d := len(g.attrs)
	rec := make([]uint16, d)
	vals := make([]int, d)
	for r := 0; r < n; r++ {
		for pos, a := range g.order {
			xDim := g.attrs[a].Size()
			block := 0
			for _, p := range g.parents[pos] {
				block = block*g.attrs[p].Size() + vals[p]
			}
			cond := g.conds[pos][block*xDim : (block+1)*xDim]
			u := rng.Float64()
			var cum float64
			x := xDim - 1
			for v, pr := range cond {
				cum += pr
				if u < cum {
					x = v
					break
				}
			}
			vals[a] = x
		}
		for a := 0; a < d; a++ {
			rec[a] = uint16(vals[a])
		}
		out.Append(rec)
	}
	return out
}

// Spec identifies one of the four evaluation datasets.
type Spec struct {
	Name  string
	N     int // paper cardinality (Table 5)
	Seed  int64
	Alpha float64 // Dirichlet concentration of the ground truth
	build func() []dataset.Attribute
}

// Specs returns the four dataset specifications in the paper's order.
func Specs() []Spec {
	return []Spec{
		{Name: "NLTCS", N: 21574, Seed: 1001, Alpha: 0.3, build: nltcsAttrs},
		{Name: "ACS", N: 47461, Seed: 1002, Alpha: 0.3, build: acsAttrs},
		{Name: "Adult", N: 45222, Seed: 1003, Alpha: 0.25, build: adultAttrs},
		{Name: "BR2000", N: 38000, Seed: 1004, Alpha: 0.25, build: br2000Attrs},
	}
}

// ByName returns the spec with the given name, or false.
func ByName(name string) (Spec, bool) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Attrs returns the dataset schema.
func (s Spec) Attrs() []dataset.Attribute { return s.build() }

// Generate samples the dataset at its paper cardinality.
func (s Spec) Generate() *dataset.Dataset { return s.GenerateN(s.N) }

// GenerateN samples n records from the spec's fixed ground truth. The
// ground truth depends only on the seed, so different n values draw from
// the same underlying distribution.
func (s Spec) GenerateN(n int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(s.Seed))
	gt := NewGroundTruth(s.build(), 2, s.Alpha, rng)
	return gt.Sample(n, rng)
}
