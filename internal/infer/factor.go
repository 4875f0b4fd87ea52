package infer

import (
	"context"
	"errors"
	"fmt"

	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
	"privbayes/internal/parallel"
)

// ErrTooLarge tags every rejection of a query whose intermediate factor
// would exceed the cell cap. Callers branch on errors.Is(err,
// ErrTooLarge) to fall back to sampling (or to report 422 rather than
// 400, as privbayesd does).
var ErrTooLarge = errors.New("intermediate factor exceeds the cell cap")

// factor is an intermediate joint distribution over raw attribute
// codes, row-major with the last attribute varying fastest — the
// relational-algebra view of inference treats it as a dense relation
// whose columns are attributes and whose single measure is probability
// mass.
type factor struct {
	attrs []int
	dims  []int
	p     []float64
}

// scalarFactor is the multiplicative identity: a relation with no
// columns and total mass 1.
func scalarFactor() *factor {
	return &factor{attrs: nil, dims: nil, p: []float64{1}}
}

func (f *factor) indexOf(attr int) int {
	for i, a := range f.attrs {
		if a == attr {
			return i
		}
	}
	return -1
}

// multiplyChunk is the cell granularity of parallel factor products.
// Cell products are independent writes (no reduction), so fanning the
// loop out cannot change a single bit of the result — chunking exists
// purely to amortize pool overhead on large factors.
const multiplyChunk = 8192

// cptFactor materializes one CPT as a factor over raw codes: the dense
// relation with columns (parents..., X) and measure Pr[X | Π].
// Generalized parent levels are resolved here — a parent at taxonomy
// level L keeps its raw domain as the column but looks the conditional
// block up through Attribute.Generalize, so downstream products join on
// raw codes throughout.
func cptFactor(attrs []dataset.Attribute, c CPT, maxCells int) (*factor, error) {
	xDim := attrs[c.X].Size()
	scope := make([]int, 0, len(c.Parents)+1)
	dims := make([]int, 0, len(c.Parents)+1)
	size := xDim
	for _, par := range c.Parents {
		scope = append(scope, par.Attr)
		dims = append(dims, attrs[par.Attr].Size())
		size *= attrs[par.Attr].Size()
	}
	scope = append(scope, c.X)
	dims = append(dims, xDim)
	if size > maxCells {
		return nil, fmt.Errorf("infer: factor over %d cells: %w (cap %d; raise the cell bound or fall back to sampling)",
			size, ErrTooLarge, maxCells)
	}
	out := &factor{attrs: scope, dims: dims, p: make([]float64, size)}
	codes := make([]int, len(c.Parents))
	parentCodes := make([]int, len(c.Parents))
	for idx := 0; idx < size; idx += xDim {
		rem := idx / xDim
		for j := len(codes) - 1; j >= 0; j-- {
			codes[j] = rem % dims[j]
			rem /= dims[j]
		}
		for i, par := range c.Parents {
			pc := codes[i]
			if par.Level > 0 {
				pc = attrs[par.Attr].Generalize(par.Level, pc)
			}
			parentCodes[i] = pc
		}
		off := c.Cond.BlockIndex(parentCodes)
		copy(out.p[idx:idx+xDim], c.Cond.P[off:off+xDim])
	}
	return out, nil
}

// multiply joins two factors: the output scope is the column union and
// every output cell is the product of the aligned cells of f and g —
// the natural join of two relations with a multiplicative measure.
// workers > 1 fans the cell loop out; each output cell is written
// exactly once with no reduction, so the result is bit-identical at
// every worker count.
func (f *factor) multiply(ctx context.Context, g *factor, maxCells, workers int) (*factor, error) {
	outAttrs := append([]int(nil), f.attrs...)
	outDims := append([]int(nil), f.dims...)
	for i, a := range g.attrs {
		if f.indexOf(a) < 0 {
			outAttrs = append(outAttrs, a)
			outDims = append(outDims, g.dims[i])
		}
	}
	size := 1
	for _, d := range outDims {
		if size > maxCells/d {
			return nil, fmt.Errorf("infer: joint over at least %d cells: %w (cap %d; raise the cell bound or fall back to sampling)",
				size*d, ErrTooLarge, maxCells)
		}
		size *= d
	}
	// Strides of each output column into f and g (0 when absent): the
	// flat index into either operand is the stride-weighted sum of the
	// output cell's codes.
	fStride := make([]int, len(outAttrs))
	gStride := make([]int, len(outAttrs))
	for k, a := range outAttrs {
		if j := f.indexOf(a); j >= 0 {
			s := 1
			for i := j + 1; i < len(f.dims); i++ {
				s *= f.dims[i]
			}
			fStride[k] = s
		}
		if j := g.indexOf(a); j >= 0 {
			s := 1
			for i := j + 1; i < len(g.dims); i++ {
				s *= g.dims[i]
			}
			gStride[k] = s
		}
	}
	out := &factor{attrs: outAttrs, dims: outDims, p: make([]float64, size)}
	mul := func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			rem := idx
			fi, gi := 0, 0
			for j := len(outAttrs) - 1; j >= 0; j-- {
				c := rem % outDims[j]
				rem /= outDims[j]
				fi += c * fStride[j]
				gi += c * gStride[j]
			}
			out.p[idx] = f.p[fi] * g.p[gi]
		}
	}
	if workers > 1 && size > multiplyChunk {
		if err := parallel.ForCtx(ctx, workers, parallel.Chunks(size, multiplyChunk), func(ci int) {
			lo := ci * multiplyChunk
			mul(lo, min(lo+multiplyChunk, size))
		}); err != nil {
			return nil, err
		}
	} else {
		mul(0, size)
	}
	return out, nil
}

// sumOut marginalizes one attribute away: the relational projection
// that drops a column, aggregating mass. allowed, when non-nil, is a
// per-code mask restricting the sum to the evidence set — entries whose
// code is masked out contribute nothing, which is how equality and
// set-membership predicates are evaluated without ever materializing a
// selection. Cells are visited in index order, so the accumulation is
// deterministic.
func (f *factor) sumOut(attr int, allowed []bool) *factor {
	pos := f.indexOf(attr)
	if pos < 0 {
		return f
	}
	outAttrs := make([]int, 0, len(f.attrs)-1)
	outDims := make([]int, 0, len(f.dims)-1)
	for i, a := range f.attrs {
		if i == pos {
			continue
		}
		outAttrs = append(outAttrs, a)
		outDims = append(outDims, f.dims[i])
	}
	size := 1
	for _, d := range outDims {
		size *= d
	}
	out := &factor{attrs: outAttrs, dims: outDims, p: make([]float64, size)}
	codes := make([]int, len(f.attrs))
	for idx, p := range f.p {
		rem := idx
		for j := len(f.attrs) - 1; j >= 0; j-- {
			codes[j] = rem % f.dims[j]
			rem /= f.dims[j]
		}
		if allowed != nil && !allowed[codes[pos]] {
			continue
		}
		o := 0
		for i := range f.attrs {
			if i == pos {
				continue
			}
			o = o*f.dims[i] + codes[i]
		}
		out.p[o] += p
	}
	return out
}

// project orders the factor's remaining mass onto the requested
// targets, applying hierarchy-level rollup: a target at level L > 0
// aggregates raw codes through the attribute's taxonomy tree
// (Attribute.Generalize), so one query answers at any granularity the
// hierarchy defines. Accumulation visits factor cells in index order,
// so the result is deterministic. Duplicate targets are allowed.
func (f *factor) project(attrs []dataset.Attribute, targets []Target) (*marginal.Table, error) {
	out := &marginal.Table{
		Vars: make([]marginal.Var, len(targets)),
		Dims: make([]int, len(targets)),
	}
	size := 1
	for i, t := range targets {
		out.Vars[i] = marginal.Var{Attr: t.Attr, Level: t.Level}
		out.Dims[i] = attrs[t.Attr].SizeAt(t.Level)
		size *= out.Dims[i]
	}
	out.P = make([]float64, size)
	pos := make([]int, len(targets))
	for i, t := range targets {
		pos[i] = f.indexOf(t.Attr)
		if pos[i] < 0 {
			return nil, fmt.Errorf("infer: attribute %d lost during elimination", t.Attr)
		}
	}
	codes := make([]int, len(f.attrs))
	for idx, p := range f.p {
		rem := idx
		for j := len(f.attrs) - 1; j >= 0; j-- {
			codes[j] = rem % f.dims[j]
			rem /= f.dims[j]
		}
		o := 0
		for i, t := range targets {
			c := codes[pos[i]]
			if t.Level > 0 {
				c = attrs[t.Attr].Generalize(t.Level, c)
			}
			o = o*out.Dims[i] + c
		}
		out.P[o] += p
	}
	return out, nil
}
