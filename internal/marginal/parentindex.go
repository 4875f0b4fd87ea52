package marginal

// Parent-set descriptors for the counting engine behind batch
// candidate scoring (Algorithm 2's and Algorithm 4's dominant cost).
// Within one greedy iteration the candidates share far fewer parent
// sets than there are candidates, so MemorySource counts every child
// of a parent set together: by the popcount kernel when the joints are
// small and bit-packed, else in the batched row walk (walk.go), which
// also shares the codes of every parent prefix the batch's sets have in
// common. A ParentIndex describes one ordered parent set; IndexCache
// keeps the descriptors a source has used, with hit and miss counters.

import (
	"fmt"
	"math"
	"sync"

	"privbayes/internal/dataset"
)

// MaxParentConfigs bounds the flat parent-configuration space a
// ParentIndex can encode in its uint32 codes. A parent set beyond it,
// unreachable under θ-usefulness domain caps, is a count source's
// error.
const MaxParentConfigs = math.MaxUint32

// ParentIndex describes one ordered parent set: its variables, their
// domain sizes and its number of configurations. It holds no per-row
// state: a parent configuration's code is the row-major index of the
// row's (generalized) parent values, exactly the cell offset a
// [parents...] count table would use, and the row walk forms those
// codes one chunk at a time in per-worker scratch.
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
