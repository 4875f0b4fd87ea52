package marginal

// Word-at-a-time popcount counting over bit-packed columns: the
// relational-algebra reading of marginal counting, where a parent
// configuration is a selection (bitmask intersection of per-value
// column masks) and a joint count cell is a projection (popcount of the
// intersected mask). For the 1–3-way marginals PrivBayes materializes
// over low-arity attributes this replaces the per-row scan with ~2 word
// operations per 64 rows per cell. Counts are exact integers, so both
// engines give the same tables at every parallelism.

import (
	"math/bits"

	"privbayes/internal/dataset"
)

// popcountMaxCells bounds the joint-table size (parent configurations ×
// child domain) the popcount kernel will take on. Beyond it the
// mask-per-cell strategy scans the rows once per cell and loses to the
// single fused row walk; 64 covers every joint of ≤3 maskable (≤2-bit)
// variables.
const popcountMaxCells = 64

// disablePopcount forces the row-major counting paths, so tests and
// benchmarks can compare the two engines on identical inputs. It is the
// single gate: every popcount entry point funnels through newPopKernel.
var disablePopcount bool

// popVarOK reports whether a variable can be counted by bitmask: raw
// domain (no taxonomy generalization) over a bit-packed column of a
// materialized dataset.
func popVarOK(ds *dataset.Dataset, v Var) bool {
	if v.Level != 0 {
		return false
	}
	c := ds.Col(v.Attr)
	return c != nil && c.Maskable()
}

// popKernel holds the per-value row bitmasks of one parent set, ready
// to count any number of children against. Masks come from the shared
// word pool; callers must release().
type popKernel struct {
	ds     *dataset.Dataset
	nw     int          // words per row mask
	dims   []int        // parent domain sizes
	piDim  int          // parent configurations
	pmasks [][][]uint64 // pmasks[i][v]: rows where parent i has code v
	tmp    []uint64     // intersection scratch (2-parent case)
}

// newPopKernel builds the parent-side masks, or reports false when the
// parent set is not popcount-eligible (more than 2 parents, any
// non-maskable parent, or the kernel globally disabled).
func newPopKernel(ds *dataset.Dataset, parents []Var) (*popKernel, bool) {
	if disablePopcount || len(parents) > 2 {
		return nil, false
	}
	for _, v := range parents {
		if !popVarOK(ds, v) {
			return nil, false
		}
	}
	k := &popKernel{ds: ds, piDim: 1}
	if len(parents) > 0 {
		k.nw = ds.Col(parents[0].Attr).MaskWords()
	}
	k.dims = make([]int, len(parents))
	k.pmasks = make([][][]uint64, len(parents))
	for i, v := range parents {
		col := ds.Col(v.Attr)
		size := col.Size()
		k.dims[i] = size
		k.piDim *= size
		vm := make([][]uint64, size)
		for val := 0; val < size; val++ {
			m := getWords(k.nw)
			col.FillValueMask(val, m)
			vm[val] = m
		}
		k.pmasks[i] = vm
	}
	if len(parents) == 2 {
		k.tmp = getWords(k.nw)
	}
	return k, true
}

// childOK reports whether a child can be counted against this kernel:
// maskable, and the joint table small enough that mask-per-cell wins.
func (k *popKernel) childOK(child Var) bool {
	return popVarOK(k.ds, child) && k.piDim*child.Size(k.ds) <= popcountMaxCells
}

// countChildren fills dsts[j] — a zeroed [parents..., child_j] count
// table laid out with the child fastest — with exact joint counts for
// every child. Iteration is configuration-major: each parent
// configuration's intersection mask is built once and amortized across
// all children and child values.
func (k *popKernel) countChildren(children []Var, dsts [][]float64) {
	if len(children) == 0 {
		return
	}
	// Per-child per-value masks.
	cmasks := make([][][]uint64, len(children))
	xdim := make([]int, len(children))
	for j, ch := range children {
		col := k.ds.Col(ch.Attr)
		// A kernel built for a 0-parent set on a virtual/empty dataset
		// has nw from the child instead.
		if k.nw == 0 {
			k.nw = col.MaskWords()
		}
		xd := col.Size()
		xdim[j] = xd
		vm := make([][]uint64, xd)
		for val := 0; val < xd; val++ {
			m := getWords(k.nw)
			col.FillValueMask(val, m)
			vm[val] = m
		}
		cmasks[j] = vm
	}
	for p := 0; p < k.piDim; p++ {
		var cfg []uint64
		switch len(k.pmasks) {
		case 0:
			cfg = nil // every row
		case 1:
			cfg = k.pmasks[0][p]
		default:
			m0 := k.pmasks[0][p/k.dims[1]]
			m1 := k.pmasks[1][p%k.dims[1]]
			for w := range k.tmp {
				k.tmp[w] = m0[w] & m1[w]
			}
			cfg = k.tmp
		}
		for j := range children {
			dst := dsts[j]
			for x, mx := range cmasks[j] {
				var c int
				if cfg == nil {
					for _, w := range mx {
						c += bits.OnesCount64(w)
					}
				} else {
					for w := range mx {
						c += bits.OnesCount64(cfg[w] & mx[w])
					}
				}
				dst[p*xdim[j]+x] = float64(c)
			}
		}
	}
	for _, vm := range cmasks {
		for _, m := range vm {
			putWords(m)
		}
	}
}

// release returns the kernel's pooled masks. The kernel must not be
// used afterwards.
func (k *popKernel) release() {
	for _, vm := range k.pmasks {
		for _, m := range vm {
			putWords(m)
		}
	}
	if k.tmp != nil {
		putWords(k.tmp)
	}
}

// popcountCounts materializes the exact count table of vars — read as
// [parents..., child] with vars' last variable as the child — via the
// popcount kernel, or reports false when the variable list is not
// eligible. The counts are identical (as integers, hence bit-identical
// as float64) to MaterializeCounts' row walk.
func popcountCounts(ds *dataset.Dataset, vars []Var) (*Table, bool) {
	if len(vars) == 0 || len(vars) > 3 {
		return nil, false
	}
	parents, child := vars[:len(vars)-1], vars[len(vars)-1]
	k, ok := newPopKernel(ds, parents)
	if !ok {
		return nil, false
	}
	defer k.release()
	if !k.childOK(child) {
		return nil, false
	}
	t := NewTable(ds, vars)
	k.countChildren([]Var{child}, [][]float64{t.P})
	return t, true
}
