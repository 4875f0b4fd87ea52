package marginal

// This file implements the shared-scan counting engine behind batch
// candidate scoring (Algorithm 2's dominant cost). Within one greedy
// iteration the C(|V|,k)·(d−|V|) exponential-mechanism candidates share
// only C(|V|,k) distinct parent sets; materializing each candidate's
// joint with its own O(n·(k+1)) row scan would repeat almost all of the
// work. A ParentIndex counts every child of one parent set together:
// by the popcount kernel when the joints are small and bit-packed, else
// by one fused row walk that forms each row chunk's parent codes once
// and counts every child against them before it moves on.

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

// ParentIndex describes one ordered parent set — its variables, their
// domain sizes and its number of configurations — and counts any
// number of child attributes against it with CountChildren. It holds
// no per-row state: a parent configuration's code is the row-major
// index of the row's (generalized) parent values, exactly the cell
// offset a [parents...] count table would use, and the row walk forms
// those codes one chunk at a time in per-worker scratch.
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
}

// BuildParentIndex returns the index of an ordered parent set. Panics
// if the configuration space exceeds MaxParentConfigs; callers guard
// with ParentConfigs first.
func BuildParentIndex(ds *dataset.Dataset, parents []Var) *ParentIndex {
	size, ok := ParentConfigs(ds, parents)
	if !ok {
		panic(fmt.Sprintf("marginal: parent set %v has more than %d configurations", parents, MaxParentConfigs))
	}
	ix := &ParentIndex{Vars: append([]Var(nil), parents...), Dims: make([]int, len(parents)), PiDim: size}
	for i, v := range parents {
		ix.Dims[i] = v.Size(ds)
	}
	return ix
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

// CountChildren materializes the exact joint count tables over
// [ix.Vars..., child] for every child of ds. Popcount-eligible children
// — raw-level bit-packed parents and child, a joint of at most 64 cells
// — are counted by bitmask intersection + popcount; the rest share one
// fused row walk. Both produce integer counts, so per-worker partials
// merge exactly and the result is bit-identical to MaterializeCounts
// for each child, at every parallelism.
func (ix *ParentIndex) CountChildren(ds *dataset.Dataset, children []Var, parallelism int) []*Table {
	out := make([]*Table, len(children))
	for j, ch := range children {
		out[j] = NewTable(ds, append(append([]Var(nil), ix.Vars...), ch))
	}
	if ds.N() == 0 {
		return out
	}
	pk, pop := newPopKernel(ds, ix.Vars)
	var popVars, rowVars []Var
	var popDsts, rowDsts [][]float64
	for j, ch := range children {
		if pop && pk.childOK(ch) {
			popVars, popDsts = append(popVars, ch), append(popDsts, out[j].P)
		} else {
			rowVars, rowDsts = append(rowVars, ch), append(rowDsts, out[j].P)
		}
	}
	if len(popVars) > 0 {
		pk.countChildren(popVars, popDsts)
	}
	if len(rowVars) > 0 {
		ix.countChildrenRows(ds, rowVars, rowDsts, parallelism)
	}
	return out
}

// countChildrenRows is the fused row walk: it adds into dsts[j] the
// joint counts of the parents and children[j]. Each worker takes
// materializeChunk-row chunks; for each it forms the chunk's parent
// codes in its own buffer, then counts every child of the chunk while
// those codes stay L1-resident, one increment per (row, child) at
// code·|dom(child)| + code(child). Workers count into private tables
// that merge by exact integer addition, so the counts are the same at
// every parallelism.
func (ix *ParentIndex) countChildrenRows(ds *dataset.Dataset, children []Var, dsts [][]float64, parallelism int) {
	pcols, pgens := lookups(ds, ix.Vars)
	ccols, cgens := lookups(ds, children)
	strides := rowStrides(ix.Dims)
	xdim := make([]int, len(children))
	for j, ch := range children {
		xdim[j] = ch.Size(ds)
	}
	n := ds.N()
	workers := min(parallel.Workers(parallelism), parallel.Chunks(n, materializeChunk))
	type scratch struct {
		codes []uint32
		buf   []uint16
		dsts  [][]float64
	}
	per := make([]*scratch, workers)
	parallel.ForChunks(workers, n, materializeChunk, func(worker, lo, hi int) {
		s := per[worker]
		if s == nil {
			s = &scratch{codes: u32s.get(materializeChunk), buf: u16s.get(materializeChunk), dsts: dsts}
			if workers > 1 {
				s.dsts = make([][]float64, len(dsts))
				for j := range s.dsts {
					s.dsts[j] = floats.get(len(dsts[j]))
					clear(s.dsts[j])
				}
			}
			per[worker] = s
		}
		codes := s.codes[:hi-lo]
		clear(codes)
		for i, col := range pcols {
			vals := col.DecodeRange(lo, hi, s.buf)
			stride := uint32(strides[i])
			if g := pgens[i]; g != nil {
				for r, v := range vals {
					codes[r] += uint32(g[v]) * stride
				}
			} else {
				for r, v := range vals {
					codes[r] += uint32(v) * stride
				}
			}
		}
		for j, col := range ccols {
			vals := col.DecodeRange(lo, hi, s.buf)
			d, xd, g := s.dsts[j], xdim[j], cgens[j]
			switch {
			case len(pcols) == 0 && g == nil:
				for _, v := range vals {
					d[v]++
				}
			case len(pcols) == 0:
				for _, v := range vals {
					d[g[v]]++
				}
			case g == nil:
				for r, v := range vals {
					d[int(codes[r])*xd+int(v)]++
				}
			default:
				for r, v := range vals {
					d[int(codes[r])*xd+g[v]]++
				}
			}
		}
	})
	for _, s := range per {
		if s == nil {
			continue
		}
		u32s.put(s.codes)
		u16s.put(s.buf)
		if workers > 1 {
			for j, d := range s.dsts {
				for c, v := range d {
					dsts[j][c] += v
				}
				floats.put(d)
			}
		}
	}
	putLookups(pgens)
	putLookups(cgens)
}

// IndexCache is a bounded, concurrency-safe LRU of ParentIndex
// descriptors keyed by the ordered parent-variable list. A descriptor
// holds no per-row state, so a hit saves only a few small allocations;
// the cache stays for its hit and miss counters, which the benchmark's
// traces report. Entries are pure functions of the schema, so hits can
// never change results.
type IndexCache struct {
	mu     sync.Mutex
	lru    *VarLRU[*ParentIndex]
	hits   int64
	misses int64
}

// DefaultIndexCacheCap bounds an IndexCache when the caller does not
// choose a capacity.
const DefaultIndexCacheCap = 64

// NewIndexCache creates a cache holding at most capacity indexes
// (capacity <= 0 selects DefaultIndexCacheCap).
func NewIndexCache(capacity int) *IndexCache {
	if capacity <= 0 {
		capacity = DefaultIndexCacheCap
	}
	return &IndexCache{lru: NewVarLRU[*ParentIndex](capacity)}
}

// Get returns the index for the ordered parent list, building it on a
// miss. Concurrent misses for the same key may build twice; the indexes
// are identical, and the first inserted entry wins, so results are
// unaffected.
func (c *IndexCache) Get(ds *dataset.Dataset, parents []Var) *ParentIndex {
	key := VarsKey(parents)
	c.mu.Lock()
	if ix, ok := c.lru.Get(key, parents); ok {
		c.hits++
		c.mu.Unlock()
		return ix
	}
	c.misses++
	c.mu.Unlock()

	ix := BuildParentIndex(ds, parents)

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
