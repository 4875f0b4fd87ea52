package marginal

// This file implements the shared-scan counting engine behind batch
// candidate scoring (Algorithm 2's dominant cost). Within one greedy
// iteration the C(|V|,k)·(d−|V|) exponential-mechanism candidates share
// only C(|V|,k) distinct parent sets, and those parent sets recur across
// iterations; materializing each candidate's joint with its own O(n·(k+1))
// row scan therefore repeats almost all of the work. A ParentIndex pays
// the O(n·k) parent-configuration scan once per parent set, after which
// every child's joint costs a single fused O(n) pass. MemorySource
// keeps the indexes in an IndexCache keyed by the parent set.

import (
	"fmt"
	"math"
	"sync"

	"privbayes/internal/dataset"
	"privbayes/internal/parallel"
)

// MaxParentConfigs bounds the flat parent-configuration space a
// ParentIndex can encode in its uint32 codes. Parent sets beyond it —
// unreachable under θ-usefulness domain caps — must fall back to
// per-candidate materialization.
const MaxParentConfigs = math.MaxUint32

// ParentIndex encodes each dataset row's parent-set configuration as a
// flat code: RowCodes()[r] is the row-major index of row r's
// (generalized) parent values, exactly the cell offset a [parents...]
// count table would use. One index drives joint counting for any number
// of child attributes via CountChildren, replacing per-candidate
// O(n·(k+1)) scans with a single fused O(n) pass per child — and when
// the parent set and child are bit-packed low-arity columns,
// CountChildren skips the row codes entirely and counts by bitmask
// intersection + popcount (see popcount.go), so the O(n·k) code build
// is lazy: it is only ever paid by parent sets that need the row path.
type ParentIndex struct {
	// Vars are the parent variables in materialization order. The order
	// is part of the index identity: joint tables are laid out
	// [Vars..., child], matching what Materialize would produce for the
	// same ordered variable list.
	Vars []Var
	// Dims are the per-parent domain sizes (at their taxonomy levels).
	Dims []int
	// PiDim is the number of parent configurations (product of Dims).
	PiDim int

	ds  *dataset.Dataset
	par int // parallelism for the lazy code build
	n   int

	codesOnce sync.Once
	codes     []uint32
}

// BuildParentIndex validates the parent-configuration space and returns
// the index. The O(n·k) row-code scan — taxonomy generalization applied
// through the usual lookup tables — is deferred to the first RowCodes
// call, so popcount-eligible parent sets never pay it. Panics if the
// configuration space exceeds MaxParentConfigs; callers guard with
// ParentConfigs first.
func BuildParentIndex(ds *dataset.Dataset, parents []Var, parallelism int) *ParentIndex {
	ix := &ParentIndex{
		Vars: append([]Var(nil), parents...),
		Dims: make([]int, len(parents)),
		ds:   ds,
		par:  parallelism,
		n:    ds.N(),
	}
	size := 1
	for i, v := range parents {
		ix.Dims[i] = v.Size(ds)
		size *= ix.Dims[i]
		if size <= 0 || int64(size) > MaxParentConfigs {
			panic(fmt.Sprintf("marginal: parent set %v has more than %d configurations", parents, MaxParentConfigs))
		}
	}
	ix.PiDim = size
	return ix
}

// RowCodes returns the per-row parent-configuration codes, building
// them on first use. It is nil when the parent set is empty (every row
// is configuration 0) or the dataset has no rows. Row codes are written
// by row position, so the result is identical at every parallelism
// (<= 0 selects GOMAXPROCS).
func (ix *ParentIndex) RowCodes() []uint32 {
	if len(ix.Vars) == 0 || ix.n == 0 {
		return nil
	}
	ix.codesOnce.Do(ix.buildCodes)
	return ix.codes
}

func (ix *ParentIndex) buildCodes() {
	t := &Table{Vars: ix.Vars, Dims: ix.Dims}
	c := newCounter(t, ix.ds)
	ix.codes = make([]uint32, ix.n)
	workers := parallel.Workers(ix.par)
	parallel.ForChunks(workers, ix.n, materializeChunk, func(_, lo, hi int) {
		// Parent-outer accumulation: codes[r] = Σ stride_i·code_i(r).
		// Each pass is a tight two-array loop (hoisted column, stride and
		// lookup), and the chunk keeps the codes slice L1-resident.
		codes := ix.codes[lo:hi]
		buf := getU16(hi - lo)
		for i := range c.strides {
			col := c.cols[i].DecodeRange(lo, hi, buf)
			stride := uint32(c.strides[i])
			if g := c.gen[i]; g != nil {
				for r, v := range col {
					codes[r] += uint32(g[v]) * stride
				}
			} else {
				for r, v := range col {
					codes[r] += uint32(v) * stride
				}
			}
		}
		putU16(buf)
	})
	c.release()
}

// ParentConfigs returns the size of the flat configuration space for a
// parent set, or false when it exceeds MaxParentConfigs (overflow-safe).
func ParentConfigs(ds *dataset.Dataset, parents []Var) (int, bool) {
	size := int64(1)
	for _, v := range parents {
		size *= int64(v.Size(ds))
		if size <= 0 || size > MaxParentConfigs {
			return 0, false
		}
	}
	return int(size), true
}

// N returns the number of indexed rows.
func (ix *ParentIndex) N() int { return ix.n }

// CountChildren materializes the exact joint count tables over
// [ix.Vars..., child] for every child. Popcount-eligible children —
// bit-packed low-arity parents and child, small joint — are counted by
// bitmask intersection + popcount without ever building row codes; the
// rest share a single fused pass over the rows, each row contributing
// one increment per child at offset RowCodes()[r]·|dom(child)| +
// code(child). Both paths produce integer counts, so per-worker
// partials merge exactly and the result is bit-identical to
// MaterializeCounts for each child, at every parallelism.
func (ix *ParentIndex) CountChildren(ds *dataset.Dataset, children []Var, parallelism int) []*Table {
	m := len(children)
	out := make([]*Table, m)
	vars := make([][]Var, m)
	for j, ch := range children {
		vars[j] = append(append([]Var(nil), ix.Vars...), ch)
		out[j] = NewTable(ds, vars[j])
	}
	if m == 0 {
		return out
	}
	xdim := make([]int, m)
	for j, ch := range children {
		xdim[j] = ch.Size(ds)
	}
	if ix.n == 0 {
		return out
	}

	// Popcount fast path for eligible children; the rest fall through
	// to the fused row walk.
	rest := make([]int, 0, m)
	if pk, ok := newPopKernel(ds, ix.Vars); ok {
		popChildren := make([]Var, 0, m)
		popDsts := make([][]float64, 0, m)
		for j, ch := range children {
			if pk.childOK(ch) {
				popChildren = append(popChildren, ch)
				popDsts = append(popDsts, out[j].P)
			} else {
				rest = append(rest, j)
			}
		}
		pk.countChildren(popChildren, popDsts)
		pk.release()
	} else {
		for j := range children {
			rest = append(rest, j)
		}
	}

	if len(rest) > 0 {
		ix.countChildrenRows(ds, children, rest, xdim, out, parallelism)
	}
	return out
}

// countChildrenRows runs the fused row walk for the children out[j],
// j ∈ rest, that the popcount kernel did not take.
func (ix *ParentIndex) countChildrenRows(ds *dataset.Dataset, children []Var, rest []int, xdim []int, out []*Table, parallelism int) {
	// Per-child column, generalization lookup and domain size for the
	// fused inner loop.
	mr := len(rest)
	cols := make([]*dataset.Column, mr)
	gens := make([][]int, mr)
	rxd := make([]int, mr)
	outP := make([][]float64, mr)
	for i, j := range rest {
		ch := children[j]
		cols[i] = ds.Col(ch.Attr)
		rxd[i] = xdim[j]
		outP[i] = out[j].P
		if ch.Level > 0 {
			a := ds.Attr(ch.Attr)
			g := getInts(a.Size())
			for code := range g {
				g[code] = a.Generalize(ch.Level, code)
			}
			gens[i] = g
		}
	}
	defer func() {
		for _, g := range gens {
			if g != nil {
				putInts(g)
			}
		}
	}()

	codes := ix.RowCodes()
	workers := parallel.Workers(parallelism)
	nc := parallel.Chunks(ix.n, materializeChunk)
	if workers <= 1 || nc <= 1 {
		// Chunked even when serial: each chunk's parent codes stay
		// L1-resident across the per-child passes.
		for lo := 0; lo < ix.n; lo += materializeChunk {
			hi := min(lo+materializeChunk, ix.n)
			countChildrenRange(lo, hi, codes, cols, gens, rxd, outP)
		}
	} else {
		scratch := make([][][]float64, workers)
		parallel.ForChunks(workers, ix.n, materializeChunk, func(worker, lo, hi int) {
			if scratch[worker] == nil {
				s := make([][]float64, mr)
				for i := range s {
					s[i] = getFloats(len(outP[i]))
				}
				scratch[worker] = s
			}
			countChildrenRange(lo, hi, codes, cols, gens, rxd, scratch[worker])
		})
		for _, s := range scratch {
			if s == nil {
				continue
			}
			for i := range s {
				dst := outP[i]
				for c, v := range s[i] {
					dst[c] += v
				}
				putFloats(s[i])
			}
		}
	}
}

// countChildrenRange is the fused counting kernel: within one row chunk
// the parent codes stay L1-resident while each child is counted by a
// tight two-array loop with hoisted column, lookup and destination — one
// increment per (row, child), never re-reading the parent columns.
// Decode scratch is per call, so concurrent chunk calls are race-free.
func countChildrenRange(lo, hi int, allCodes []uint32, cols []*dataset.Column, gens [][]int, xdim []int, dst [][]float64) {
	var codes []uint32
	if allCodes != nil {
		codes = allCodes[lo:hi]
	}
	buf := getU16(hi - lo)
	for j := range cols {
		col := cols[j].DecodeRange(lo, hi, buf)
		d := dst[j]
		xd := xdim[j]
		switch {
		case codes == nil && gens[j] == nil:
			for _, v := range col {
				d[v]++
			}
		case codes == nil:
			g := gens[j]
			for _, v := range col {
				d[g[v]]++
			}
		case gens[j] == nil:
			for r, v := range col {
				d[int(codes[r])*xd+int(v)]++
			}
		default:
			g := gens[j]
			for r, v := range col {
				d[int(codes[r])*xd+g[v]]++
			}
		}
	}
	putU16(buf)
}

// IndexCache is a bounded, concurrency-safe LRU of ParentIndex values
// keyed by the ordered parent-variable list, so a parent set counted
// again reuses its index. Entries are pure functions of the dataset,
// so cache hits can never change results — eviction only costs a
// rebuild.
type IndexCache struct {
	mu     sync.Mutex
	lru    *VarLRU[*ParentIndex]
	hits   int64
	misses int64
}

// DefaultIndexCacheCap bounds an IndexCache when the caller does not
// choose a capacity. Each cached index costs ~4 bytes per dataset row.
const DefaultIndexCacheCap = 64

// NewIndexCache creates a cache holding at most capacity indexes
// (capacity <= 0 selects DefaultIndexCacheCap).
func NewIndexCache(capacity int) *IndexCache {
	if capacity <= 0 {
		capacity = DefaultIndexCacheCap
	}
	return &IndexCache{lru: NewVarLRU[*ParentIndex](capacity)}
}

// VarsKey hashes an ordered variable list into the compact uint64 keys
// the scoring memo and index cache use (FNV-1a over attr/level words).
// Callers must verify equality on the stored vars — the cache structures
// here do — since 64-bit hashes can in principle collide.
func VarsKey(vars []Var) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range vars {
		h ^= uint64(uint32(v.Attr))
		h *= prime
		h ^= uint64(uint32(v.Level))
		h *= prime
	}
	return h
}

// Get returns the index for the ordered parent list, building it with
// the given parallelism on a miss. Concurrent misses for the same key
// may build twice; the indexes are identical, and the first inserted
// entry wins, so results are unaffected.
func (c *IndexCache) Get(ds *dataset.Dataset, parents []Var, parallelism int) *ParentIndex {
	key := VarsKey(parents)
	c.mu.Lock()
	if ix, ok := c.lru.Get(key, parents); ok {
		c.hits++
		c.mu.Unlock()
		return ix
	}
	c.misses++
	c.mu.Unlock()

	ix := BuildParentIndex(ds, parents, parallelism)

	c.mu.Lock()
	defer c.mu.Unlock()
	// A raced builder may have inserted first; share its (identical) index.
	return c.lru.PutIfAbsent(key, append([]Var(nil), parents...), ix)
}

// Len reports the number of cached indexes.
func (c *IndexCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats reports cache hits and misses since creation.
func (c *IndexCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
