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
// counts keep that exact. Joints the popcount kernel refuses take a
// plain row walk, one increment per row, decoding columns a chunk at a
// time; it is also the reference the faster engines are tested against.
func MaterializeCounts(ds *dataset.Dataset, vars []Var) *Table {
	if t, ok := popcountCounts(ds, vars); ok {
		return t
	}
	t := NewTable(ds, vars)
	cols, gens := lookups(ds, vars)
	strides := rowStrides(t.Dims)
	bufs := make([][]uint16, len(vars))
	decoded := make([][]uint16, len(vars))
	for i := range bufs {
		bufs[i] = u16s.get(materializeChunk)
	}
	for lo := 0; lo < ds.N(); lo += materializeChunk {
		hi := min(lo+materializeChunk, ds.N())
		for i, col := range cols {
			decoded[i] = col.DecodeRange(lo, hi, bufs[i])
		}
		for r := range hi - lo {
			idx := 0
			for i, d := range decoded {
				code := int(d[r])
				if gens[i] != nil {
					code = gens[i][code]
				}
				idx += code * strides[i]
			}
			t.P[idx]++
		}
	}
	for _, b := range bufs {
		u16s.put(b)
	}
	putLookups(gens)
	return t
}

// rowStrides returns the row-major strides of a table's dimensions:
// the last variable varies fastest.
func rowStrides(dims []int) []int {
	strides := make([]int, len(dims))
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	return strides
}

// lookups returns each variable's column and its generalization lookup
// from raw codes to codes at the variable's level (nil at level 0), so
// a row loop reads a handful of arrays per variable. The lookups are
// pooled: return them with putLookups.
func lookups(ds *dataset.Dataset, vars []Var) ([]*dataset.Column, [][]int) {
	cols := make([]*dataset.Column, len(vars))
	gens := make([][]int, len(vars))
	for i, v := range vars {
		cols[i] = ds.Col(v.Attr)
		if v.Level > 0 {
			a := ds.Attr(v.Attr)
			g := ints.get(a.Size())
			for code := range g {
				g[code] = a.Generalize(v.Level, code)
			}
			gens[i] = g
		}
	}
	return cols, gens
}

// putLookups returns lookups' generalization tables to their pool.
func putLookups(gens [][]int) {
	for _, g := range gens {
		if g != nil {
			ints.put(g)
		}
	}
}

// materializeChunk is the row-range fan-out granularity, and the rows a
// walk worker encodes at a time (16 KiB of codes per trie depth). Large
// enough that per-chunk overhead vanishes, small enough to balance load
// across workers on mid-sized datasets.
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
	codes := ints.get(len(t.Dims))
	for idx := range t.P {
		codes = t.Codes(idx, codes)
		o := 0
		for i := range vars {
			o = o*dims[i] + codes[pos[i]]
		}
		out.P[o] += t.P[idx]
	}
	ints.put(codes)
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
