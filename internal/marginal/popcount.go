package marginal

// Word-at-a-time popcount counting over bit-packed columns: the
// relational-algebra reading of marginal counting, where a parent
// configuration is a selection (bitmask intersection of per-value
// column masks) and a joint count cell is a projection (popcount of the
// intersected mask). Every joint of at most popcountMaxCells cells over
// raw-level, bit-packed variables — any number of parents — is counted
// this way, at about one word operation per 64 rows per cell instead of
// a per-row scan. Counts are exact integers, so both engines give the
// same tables at every parallelism.

import (
	"math/bits"

	"privbayes/internal/dataset"
)

// popcountMaxCells bounds the joint-table size (parent configurations ×
// child domain) the popcount kernel will take on. Beyond it the
// mask-per-cell strategy scans the rows once per cell and loses to the
// single fused row walk. 64 cells admit, for example, five binary
// parents with a binary child, or two 4-valued parents with a 4-valued
// child.
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

// popKernel counts children against one popcount-eligible parent set.
// It holds only the parent columns; countChildren builds the row masks
// from the shared word pool and returns them when it is done.
type popKernel struct {
	ds    *dataset.Dataset
	cols  []*dataset.Column // parent columns, in table order
	piDim int               // parent configurations
}

// newPopKernel reports false when the parent set is not
// popcount-eligible: a parent is not maskable at raw level, the parent
// set has more than popcountMaxCells configurations, or the kernel is
// globally disabled. It builds no masks.
func newPopKernel(ds *dataset.Dataset, parents []Var) (*popKernel, bool) {
	if disablePopcount {
		return nil, false
	}
	k := &popKernel{ds: ds, cols: make([]*dataset.Column, len(parents)), piDim: 1}
	for i, v := range parents {
		if !popVarOK(ds, v) {
			return nil, false
		}
		k.cols[i] = ds.Col(v.Attr)
		k.piDim *= k.cols[i].Size()
		if k.piDim > popcountMaxCells {
			return nil, false
		}
	}
	return k, true
}

// childOK reports whether a child can be counted against this kernel:
// maskable, and the joint table at most popcountMaxCells cells.
func (k *popKernel) childOK(child Var) bool {
	return popVarOK(k.ds, child) && k.piDim*child.Size(k.ds) <= popcountMaxCells
}

// countChildren fills dsts[j] — a zeroed [parents..., child_j] count
// table laid out with the child fastest — with exact joint counts for
// every child. It walks the parent configurations in row-major order
// keeping one running AND per parent depth, so a step rebuilds only the
// masks from the first parent whose value changed. Each configuration's
// mask is amortized across all children: a child's first |dom|−1
// values are counted by popcount and its last value is the
// configuration's row count minus their sum.
func (k *popKernel) countChildren(children []Var, dsts [][]float64) {
	if len(children) == 0 {
		return
	}
	n := k.ds.N()
	nw := k.ds.Col(children[0].Attr).MaskWords() // every column has n rows
	var pooled [][]uint64
	valueMasks := func(col *dataset.Column, vals int) [][]uint64 {
		vm := make([][]uint64, vals)
		for v := range vm {
			vm[v] = words.get(nw)
			col.FillValueMask(v, vm[v])
			pooled = append(pooled, vm[v])
		}
		return vm
	}
	np := len(k.cols)
	pmasks := make([][][]uint64, np) // pmasks[i][v]: rows where parent i has code v
	and := make([][]uint64, np)      // and[i]: rows matching parents 0..i of the configuration
	for i, col := range k.cols {
		pmasks[i] = valueMasks(col, col.Size())
		and[i] = words.get(nw)
		pooled = append(pooled, and[i])
	}
	cmasks := make([][][]uint64, len(children))
	xdim := make([]int, len(children))
	for j, ch := range children {
		col := k.ds.Col(ch.Attr)
		xdim[j] = col.Size()
		cmasks[j] = valueMasks(col, xdim[j]-1)
	}

	val := make([]int, np) // the configuration's parent values
	from := 0              // first parent depth whose value changed
	for p := 0; p < k.piDim; p++ {
		var cfg []uint64 // nil selects every row
		rows := n
		for i := from; i < np; i++ {
			// and[i] = and[i-1] & mask of parent i's value; at depth 0,
			// the mask itself (m & m).
			m := pmasks[i][val[i]]
			prev := m
			if i > 0 {
				prev = and[i-1]
			}
			rows = andCount(and[i], prev, m)
		}
		if np > 0 {
			cfg = and[np-1]
		}
		for j, vm := range cmasks {
			dst := dsts[j][p*xdim[j] : (p+1)*xdim[j]]
			last := rows
			for x, mx := range vm {
				c := popcountAnd(cfg, mx)
				dst[x] = float64(c)
				last -= c
			}
			dst[len(vm)] = float64(last)
		}
		// Next configuration: the last parent varies fastest.
		from = np - 1
		for from > 0 && val[from] == len(pmasks[from])-1 {
			val[from] = 0
			from--
		}
		if from >= 0 {
			val[from]++
		}
	}
	for _, m := range pooled {
		words.put(m)
	}
}

// andCount stores a & b in dst and returns its popcount.
func andCount(dst, a, b []uint64) int {
	a, b = a[:len(dst)], b[:len(dst)]
	c := 0
	for w := range dst {
		x := a[w] & b[w]
		dst[w] = x
		c += bits.OnesCount64(x)
	}
	return c
}

// popcountAnd returns the popcount of cfg & m, or of m alone when cfg
// is nil. It is the kernel's inner loop; four independent sums let the
// popcounts of consecutive words overlap.
func popcountAnd(cfg, m []uint64) int {
	c := 0
	if cfg == nil {
		for _, x := range m {
			c += bits.OnesCount64(x)
		}
		return c
	}
	cfg = cfg[:len(m)]
	var c1, c2, c3 int
	w := 0
	for ; w+4 <= len(m); w += 4 {
		c += bits.OnesCount64(cfg[w] & m[w])
		c1 += bits.OnesCount64(cfg[w+1] & m[w+1])
		c2 += bits.OnesCount64(cfg[w+2] & m[w+2])
		c3 += bits.OnesCount64(cfg[w+3] & m[w+3])
	}
	for ; w < len(m); w++ {
		c += bits.OnesCount64(cfg[w] & m[w])
	}
	return c + c1 + c2 + c3
}

// popcountCounts materializes the exact count table of vars — read as
// [parents..., child] with vars' last variable as the child — via the
// popcount kernel, or reports false when the variable list is not
// eligible. The counts are identical (as integers, hence bit-identical
// as float64) to MaterializeCounts' row walk.
func popcountCounts(ds *dataset.Dataset, vars []Var) (*Table, bool) {
	if len(vars) == 0 {
		return nil, false
	}
	parents, child := vars[:len(vars)-1], vars[len(vars)-1]
	k, ok := newPopKernel(ds, parents)
	if !ok || !k.childOK(child) {
		return nil, false
	}
	t := NewTable(ds, vars)
	k.countChildren([]Var{child}, [][]float64{t.P})
	return t, true
}
