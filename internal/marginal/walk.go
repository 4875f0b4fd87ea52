package marginal

// The batched row walk behind MemorySource.CountBatch. One greedy
// iteration of Algorithm 4 asks for the joints of about a thousand
// parent sets, each serving about one child, and the sets overlap
// heavily. Their ordered parent lists form a prefix trie, and the walk
// counts all of them in one pass over the rows: chunk by chunk, it
// visits the trie in preorder, and each node forms its rows' codes from
// its parent node's as code·|dom(v)| + gen(v). That is the row-major
// (Horner) order of a [parents..., child] table, so a prefix shared by
// many parent sets is encoded once per chunk, and every child of a
// parent set is counted against its node's codes while they are still
// in cache. Byte- and short-coded columns are read in place; bit-packed
// ones are decoded once per chunk. Each worker counts into its own
// uint32 cells, which merge into the float64 tables by exact integer
// addition, so the tables are the same at every parallelism.

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"privbayes/internal/dataset"
	"privbayes/internal/parallel"
)

// maxPassCells caps the cells one walk pass counts. A batch whose
// tables hold more is walked in several passes, each over every row,
// so a worker's partial counts take at most 4·maxPassCells bytes; a
// single table larger than the cap is walked in a pass of its own. It
// is a variable so tests can force multi-pass batches.
var maxPassCells = 1 << 20

// passHook, when set by a test, observes each walk pass: the requests
// it counts, its workers, and the cells each worker allocates.
var passHook func(reqs, workers, cells int)

// walkNode is one trie node: the last variable of an ordered parent
// prefix. Its codes extend those of the latest node one level up
// (depth−1); leaves[leafLo:leafHi] are the tables counted against them.
type walkNode struct {
	depth          int
	attr           int
	dim            uint32   // |dom(v)| at v's level
	gen            []uint32 // raw code → code at v's level
	leafLo, leafHi int
}

// walkLeaf is one [parents..., child] table of a pass.
type walkLeaf struct {
	attr int
	dim  int // |dom(child)| at its level
	gen  []uint32
	off  int // the table's first cell in a worker's pass cells
	t    *Table
}

// walkPass is one walk over the rows: its requests, the trie of their
// parent lists in preorder, and the tables it fills. leaves[:roots] are
// the children of the empty parent set.
type walkPass struct {
	reqs   []int
	nodes  []walkNode
	leaves []walkLeaf
	roots  int
	attrs  []int // attributes the pass reads
	depth  int   // longest parent list
	cells  int
}

// planPasses orders the walk requests by parent list, so requests
// sharing a prefix are adjacent, and cuts them into passes of at most
// maxPassCells cells each. Ordering never changes a table.
func planPasses(reqs []CountRequest, walk []int, cells []int) [][]int {
	slices.SortStableFunc(walk, func(a, b int) int {
		return slices.CompareFunc(reqs[a].Parents, reqs[b].Parents, func(x, y Var) int {
			return cmp.Or(cmp.Compare(x.Attr, y.Attr), cmp.Compare(x.Level, y.Level))
		})
	})
	var passes [][]int
	sum := 0
	for k, i := range walk {
		if k == 0 || sum+cells[i] > maxPassCells {
			passes = append(passes, nil)
			sum = 0
		}
		passes[len(passes)-1] = append(passes[len(passes)-1], i)
		sum += cells[i]
	}
	return passes
}

// newWalkPass builds the trie of one pass's requests, which planPasses
// sorted by parent list: each request reuses the nodes of the prefix it
// shares with the one before it, so nodes are created in preorder and
// every node's leaves are contiguous. walk[i] lists request i's
// children the walk counts; their tables are allocated here.
func newWalkPass(ds *dataset.Dataset, reqs []CountRequest, ids []int, walk [][]int, tables [][]*Table, gens genTables) *walkPass {
	p := &walkPass{reqs: ids}
	used := make([]bool, ds.D())
	var path []Var
	for _, i := range ids {
		ps := reqs[i].Parents
		k := 0
		for k < len(path) && k < len(ps) && path[k] == ps[k] {
			k++
		}
		for d := k; d < len(ps); d++ {
			v := ps[d]
			p.nodes = append(p.nodes, walkNode{depth: d, attr: v.Attr, dim: uint32(v.Size(ds)), gen: gens.get(ds, v),
				leafLo: len(p.leaves), leafHi: len(p.leaves)})
			used[v.Attr] = true
		}
		path = ps
		p.depth = max(p.depth, len(ps))
		for _, j := range walk[i] {
			ch := reqs[i].Children[j]
			t := NewTable(ds, append(append([]Var(nil), ps...), ch))
			tables[i][j] = t
			p.leaves = append(p.leaves, walkLeaf{attr: ch.Attr, dim: ch.Size(ds), gen: gens.get(ds, ch), off: p.cells, t: t})
			p.cells += len(t.P)
			used[ch.Attr] = true
		}
		if len(ps) == 0 {
			p.roots = len(p.leaves)
		} else {
			p.nodes[len(p.nodes)-1].leafHi = len(p.leaves)
		}
	}
	for a, u := range used {
		if u {
			p.attrs = append(p.attrs, a)
		}
	}
	return p
}

// walkScratch is one worker's state for a pass.
type walkScratch struct {
	cells []uint32   // the pass's tables, back to back; not pooled, as a pass may hold megabytes
	codes [][]uint32 // per depth, one chunk of codes
	b8    [][]uint8  // per attribute, this chunk's byte codes
	b16   [][]uint16 // per attribute, this chunk's short or decoded codes
	bufs  [][]uint16 // per attribute, decode buffers of bit-packed columns
}

func (p *walkPass) scratch(ds *dataset.Dataset) *walkScratch {
	s := &walkScratch{
		cells: make([]uint32, p.cells),
		codes: make([][]uint32, p.depth),
		b8:    make([][]uint8, ds.D()),
		b16:   make([][]uint16, ds.D()),
		bufs:  make([][]uint16, ds.D()),
	}
	for d := range s.codes {
		s.codes[d] = u32s.get(materializeChunk)
	}
	for _, a := range p.attrs {
		if ds.Col(a).Maskable() {
			s.bufs[a] = u16s.get(materializeChunk)
		}
	}
	return s
}

func (s *walkScratch) release() {
	for _, c := range s.codes {
		u32s.put(c)
	}
	for _, b := range s.bufs {
		u16s.put(b)
	}
}

// zeroCodes are the codes of the empty parent prefix.
var zeroCodes [materializeChunk]uint32

// chunk counts rows [lo, hi) into s.cells.
func (p *walkPass) chunk(ds *dataset.Dataset, s *walkScratch, lo, hi int) {
	for _, a := range p.attrs {
		col := ds.Col(a)
		if b, ok := col.Bytes(lo, hi); ok {
			s.b8[a] = b
		} else {
			s.b16[a] = col.DecodeRange(lo, hi, s.bufs[a])
		}
	}
	m := hi - lo
	p.count(s, p.leaves[:p.roots], zeroCodes[:m])
	for _, nd := range p.nodes {
		up := zeroCodes[:m]
		if nd.depth > 0 {
			up = s.codes[nd.depth-1][:m]
		}
		codes := s.codes[nd.depth][:m]
		if b := s.b8[nd.attr]; b != nil {
			extend(codes, up, b, nd.dim, nd.gen)
		} else {
			extend(codes, up, s.b16[nd.attr], nd.dim, nd.gen)
		}
		p.count(s, p.leaves[nd.leafLo:nd.leafHi], codes)
	}
}

// count adds the chunk's rows to each leaf's table at its parent codes.
func (p *walkPass) count(s *walkScratch, leaves []walkLeaf, codes []uint32) {
	for _, lf := range leaves {
		cells := s.cells[lf.off : lf.off+len(lf.t.P)]
		if b := s.b8[lf.attr]; b != nil {
			countRows(cells, codes, b, lf.dim, lf.gen)
		} else {
			countRows(cells, codes, s.b16[lf.attr], lf.dim, lf.gen)
		}
	}
}

// extend sets codes[r] = up[r]·dim + gen[vals[r]]. The result is below
// the prefix's configuration count, at most MaxParentConfigs, so it
// never wraps. The row loops are kept out of line: inlined into chunk,
// their loop counter spills to the stack.
//
//go:noinline
func extend[T uint8 | uint16](codes, up []uint32, vals []T, dim uint32, gen []uint32) {
	codes, up = codes[:len(vals)], up[:len(vals)]
	for r, v := range vals {
		codes[r] = up[r]*dim + gen[v]
	}
}

// countRows adds each row to cell codes[r]·dim + gen[vals[r]] of a
// [parents..., child] table.
//
//go:noinline
func countRows[T uint8 | uint16](cells, codes []uint32, vals []T, dim int, gen []uint32) {
	codes = codes[:len(vals)]
	for r, v := range vals {
		cells[int(codes[r])*dim+int(gen[v])]++
	}
}

// run walks every row of ds for the pass, chunk-parallel across up to
// workers workers, checking ctx before every chunk. Rows are taken in
// blocks of countBlockRows, after each of which the workers' cells are
// added into the tables and cleared, so no uint32 cell can overflow.
func (p *walkPass) run(ctx context.Context, ds *dataset.Dataset, workers int) error {
	n := ds.N()
	workers = min(workers, parallel.Chunks(n, materializeChunk))
	if passHook != nil {
		passHook(len(p.reqs), workers, p.cells)
	}
	per := make([]*walkScratch, workers)
	defer func() {
		for _, s := range per {
			if s != nil {
				s.release()
			}
		}
	}()
	for lo := 0; lo < n; lo += countBlockRows {
		hi := min(lo+countBlockRows, n)
		if err := parallel.ForChunks(ctx, workers, hi-lo, materializeChunk, func(w, clo, chi int) {
			if per[w] == nil {
				per[w] = p.scratch(ds)
			}
			p.chunk(ds, per[w], lo+clo, lo+chi)
		}); err != nil {
			return err
		}
		for _, s := range per {
			if s == nil {
				continue
			}
			for _, lf := range p.leaves {
				for c, v := range s.cells[lf.off : lf.off+len(lf.t.P)] {
					lf.t.P[c] += float64(v)
				}
			}
			clear(s.cells)
		}
	}
	return nil
}

// genTables builds each variable's generalization table once per
// batch. Raw-level variables share one identity table.
type genTables map[Var][]uint32

var identityGen = sync.OnceValue(func() []uint32 {
	g := make([]uint32, dataset.MaxDomain)
	for c := range g {
		g[c] = uint32(c)
	}
	return g
})

func (g genTables) get(ds *dataset.Dataset, v Var) []uint32 {
	a := ds.Attr(v.Attr)
	if v.Level == 0 {
		return identityGen()[:a.Size()]
	}
	if t, ok := g[v]; ok {
		return t
	}
	t := make([]uint32, a.Size())
	for c := range t {
		t[c] = uint32(a.Generalize(v.Level, c))
	}
	g[v] = t
	return t
}
