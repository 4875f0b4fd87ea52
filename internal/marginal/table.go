// Package marginal implements multi-dimensional marginal (contingency)
// tables over dataset attributes: materialization from data, Laplace
// noise injection, the clamp-and-normalize post-processing of Algorithm 1,
// conditional derivation, projection, and distribution distances.
package marginal

import (
	"fmt"
	"math/rand"

	"privbayes/internal/dataset"
	"privbayes/internal/dp"
)

// Var identifies an attribute at a generalization level. Level 0 is the
// raw domain; higher levels use the attribute's taxonomy tree
// (Section 5.1, hierarchical encoding).
type Var struct {
	Attr  int
	Level int
}

// Size returns the domain size of the variable within the dataset schema.
func (v Var) Size(ds *dataset.Dataset) int { return ds.Attr(v.Attr).SizeAt(v.Level) }

// String renders the variable as name(level) for diagnostics.
func (v Var) String() string {
	if v.Level == 0 {
		return fmt.Sprintf("a%d", v.Attr)
	}
	return fmt.Sprintf("a%d^%d", v.Attr, v.Level)
}

// Table is a dense joint distribution (or count table) over a list of
// variables, stored row-major with the LAST variable varying fastest.
// PrivBayes stores AP-pair joints as [parents..., child] so the cells of
// a conditional slice Pr[X | Π=π] are contiguous.
type Table struct {
	Vars []Var
	Dims []int
	P    []float64
}

// NewTable allocates a zeroed table for the given variables.
func NewTable(ds *dataset.Dataset, vars []Var) *Table {
	dims := make([]int, len(vars))
	size := 1
	for i, v := range vars {
		dims[i] = v.Size(ds)
		size *= dims[i]
	}
	return &Table{Vars: append([]Var(nil), vars...), Dims: dims, P: make([]float64, size)}
}

// Cells returns the number of cells (the paper's m for this marginal).
func (t *Table) Cells() int { return len(t.P) }

// Index converts per-variable codes into a flat cell index.
func (t *Table) Index(codes []int) int {
	idx := 0
	for i, c := range codes {
		idx = idx*t.Dims[i] + c
	}
	return idx
}

// Codes inverts Index, filling dst (allocating when short).
func (t *Table) Codes(idx int, dst []int) []int {
	if cap(dst) < len(t.Dims) {
		dst = make([]int, len(t.Dims))
	}
	dst = dst[:len(t.Dims)]
	for i := len(t.Dims) - 1; i >= 0; i-- {
		dst[i] = idx % t.Dims[i]
		idx /= t.Dims[i]
	}
	return dst
}

// Materialize computes the empirical joint distribution of the variables
// on the dataset, normalized to total mass 1 (Line 3 of Algorithm 1):
// the exact counts of MaterializeCounts scaled once by 1/n. With n = 0
// rows the table is uniform.
func Materialize(ds *dataset.Dataset, vars []Var) *Table {
	n := ds.N()
	if n == 0 {
		t := NewTable(ds, vars)
		u := 1 / float64(len(t.P))
		for i := range t.P {
			t.P[i] = u
		}
		return t
	}
	t := MaterializeCounts(ds, vars)
	t.Scale(1 / float64(n))
	return t
}

// MaterializeCounts computes raw integer counts (as float64 values). The
// F score's dynamic program relies on every cell being a multiple of 1/n;
// counts keep that exact.
func MaterializeCounts(ds *dataset.Dataset, vars []Var) *Table {
	if t, ok := popcountCounts(ds, vars); ok {
		return t
	}
	t := NewTable(ds, vars)
	c := newCounter(t, ds)
	c.countRange(0, ds.N(), t.P)
	c.release()
	return t
}

// counter precomputes per-variable stride, column, and generalization
// lookups so the row loop is a handful of array reads per variable.
// countRange keeps its decode scratch per call, and the parallel
// parent-index build shares one counter's lookups across its workers.
type counter struct {
	strides []int
	cols    []*dataset.Column
	gen     [][]int // nil when level == 0
}

func newCounter(t *Table, ds *dataset.Dataset) *counter {
	k := len(t.Vars)
	c := &counter{strides: make([]int, k), cols: make([]*dataset.Column, k), gen: make([][]int, k)}
	s := 1
	for i := k - 1; i >= 0; i-- {
		c.strides[i] = s
		s *= t.Dims[i]
	}
	for i, v := range t.Vars {
		c.cols[i] = ds.Col(v.Attr)
		if v.Level > 0 {
			a := ds.Attr(v.Attr)
			m := getInts(a.Size())
			for code := range m {
				m[code] = a.Generalize(v.Level, code)
			}
			c.gen[i] = m
		}
	}
	return c
}

// release returns the counter's pooled generalization lookups. The
// counter must not be used afterwards.
func (c *counter) release() {
	for i, g := range c.gen {
		if g != nil {
			putInts(g)
			c.gen[i] = nil
		}
	}
}

// countRange adds one per row of [lo, hi) to its cell of dst, decoding
// columns a chunk at a time so bit-packed columns unpack word-at-a-time
// instead of per row-read. Safe for concurrent calls on one counter:
// decode scratch is per call.
func (c *counter) countRange(lo, hi int, dst []float64) {
	k := len(c.strides)
	if k == 0 {
		dst[0] += float64(hi - lo)
		return
	}
	decoded := make([][]uint16, k)
	scratch := make([][]uint16, k)
	for i := range scratch {
		scratch[i] = getU16(materializeChunk)
	}
	for a := lo; a < hi; a += materializeChunk {
		b := min(a+materializeChunk, hi)
		for i := range decoded {
			decoded[i] = c.cols[i].DecodeRange(a, b, scratch[i])
		}
		for r := range b - a {
			idx := 0
			for i := 0; i < k; i++ {
				code := int(decoded[i][r])
				if c.gen[i] != nil {
					code = c.gen[i][code]
				}
				idx += code * c.strides[i]
			}
			dst[idx]++
		}
	}
	for i := range scratch {
		putU16(scratch[i])
	}
}

// materializeChunk is the row-range fan-out granularity. Large enough
// that per-chunk overhead vanishes, small enough to balance load across
// workers on mid-sized datasets.
const materializeChunk = 4096

// Sum returns the total mass.
func (t *Table) Sum() float64 {
	var s float64
	for _, p := range t.P {
		s += p
	}
	return s
}

// Scale multiplies every cell by f.
func (t *Table) Scale(f float64) {
	for i := range t.P {
		t.P[i] *= f
	}
}

// AddLaplace adds i.i.d. Laplace(scale) noise to every cell (Line 4 of
// Algorithm 1), drawn in cell order from rng.
func (t *Table) AddLaplace(rng *rand.Rand, scale float64) {
	for i := range t.P {
		t.P[i] += dp.Laplace(rng, scale)
	}
}

// ClampNormalize sets negative cells to zero and rescales to total mass 1
// (Line 5 of Algorithm 1). When everything clamps to zero the table
// becomes uniform, the least-informative valid distribution.
func (t *Table) ClampNormalize() {
	var s float64
	for i, p := range t.P {
		if p < 0 {
			t.P[i] = 0
		} else {
			s += p
		}
	}
	if s <= 0 {
		u := 1 / float64(len(t.P))
		for i := range t.P {
			t.P[i] = u
		}
		return
	}
	inv := 1 / s
	for i := range t.P {
		t.P[i] *= inv
	}
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	return &Table{
		Vars: append([]Var(nil), t.Vars...),
		Dims: append([]int(nil), t.Dims...),
		P:    append([]float64(nil), t.P...),
	}
}

// MarginalizeOnto sums the table down to the given subset of its
// variables (which must each appear in t.Vars), in the given order.
func (t *Table) MarginalizeOnto(vars []Var) *Table {
	pos := make([]int, len(vars))
	for i, v := range vars {
		pos[i] = -1
		for j, tv := range t.Vars {
			if tv == v {
				pos[i] = j
				break
			}
		}
		if pos[i] < 0 {
			panic(fmt.Sprintf("marginal: variable %v not in table %v", v, t.Vars))
		}
	}
	dims := make([]int, len(vars))
	size := 1
	for i := range vars {
		dims[i] = t.Dims[pos[i]]
		size *= dims[i]
	}
	out := &Table{Vars: append([]Var(nil), vars...), Dims: dims, P: make([]float64, size)}
	codes := getInts(len(t.Dims))
	for idx := range t.P {
		codes = t.Codes(idx, codes)
		o := 0
		for i := range vars {
			o = o*dims[i] + codes[pos[i]]
		}
		out.P[o] += t.P[idx]
	}
	putInts(codes)
	return out
}

// L1 returns the L1 distance between two tables of identical shape.
func L1(a, b *Table) float64 {
	if len(a.P) != len(b.P) {
		panic("marginal: L1 on tables of different size")
	}
	var s float64
	for i := range a.P {
		d := a.P[i] - b.P[i]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

// TVD returns the total variation distance, half the L1 distance; this is
// the paper's accuracy metric for noisy marginals (Section 6.1).
func TVD(a, b *Table) float64 { return L1(a, b) / 2 }
