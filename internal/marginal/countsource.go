package marginal

import (
	"context"
	"fmt"

	"privbayes/internal/dataset"
)

// CountSource supplies exact integer joint count tables without
// exposing rows. It is the one seam between the fit pipeline and the
// data: everything PrivBayes learns reduces to the schema, the row
// count, and [parents..., child] count tables, so the columnar dataset
// in memory (MemorySource), chunked scans (counts.Provider) and an
// incrementally maintained store (counts.Store) all drive the exact
// same greedy search and conditional materialization.
//
// CountTables must return, for each child, the table
// ParentIndex.CountChildren would produce over the full dataset: laid
// out [parents..., child] with integer-valued float64 cells. Integer
// counts merge exactly, so any chunking or sharding of the underlying
// rows yields bit-identical tables — the foundation of the
// out-of-core fit's byte-identity contract.
type CountSource interface {
	// Rows returns the number of rows the counts are over.
	Rows() int
	// CountTables returns one exact count table per child, each laid
	// out [parents..., child]. The caller owns the returned tables and
	// may mutate them freely.
	CountTables(parents []Var, children []Var) ([]*Table, error)
}

// CountRequest names one group of joint tables over a shared parent
// set, for batched prefetching.
type CountRequest struct {
	Parents  []Var
	Children []Var
}

// BatchCountSource is implemented by count sources that can satisfy
// many requests in one pass over the data. The scoring engine and the
// conditional materialization prefetch each batch, so a scan-backed
// source pays one full scan per greedy iteration rather than one per
// parent set.
type BatchCountSource interface {
	CountSource
	// Prefetch makes subsequent CountTables calls for the requested
	// groups serve from memory.
	Prefetch(ctx context.Context, reqs []CountRequest) error
}

// MemorySource is the CountSource over a columnar dataset held in
// memory. All children of a request are counted against the parent
// set's ParentIndex in one call: by bitmask intersection and popcount
// when the columns are bit-packed and low-arity, else by the fused row
// walk. It keeps no per-row state between requests.
type MemorySource struct {
	ds  *dataset.Dataset
	par int
	idx *IndexCache
}

// NewMemorySource returns a count source over ds whose counting fans
// out across up to parallelism workers (<= 0 selects GOMAXPROCS, 1
// counts serially). The counts are the same at every setting.
func NewMemorySource(ds *dataset.Dataset, parallelism int) *MemorySource {
	return &MemorySource{ds: ds, par: parallelism, idx: NewIndexCache(0)}
}

// Rows implements CountSource.
func (s *MemorySource) Rows() int { return s.ds.N() }

// CountTables implements CountSource. A parent set with more than
// MaxParentConfigs configurations is an error, as it is out of core;
// θ-usefulness domain caps keep fits far below it.
func (s *MemorySource) CountTables(parents []Var, children []Var) ([]*Table, error) {
	if _, ok := ParentConfigs(s.ds, parents); !ok {
		return nil, fmt.Errorf("marginal: parent set %v overflows the code domain", parents)
	}
	return s.idx.Get(s.ds, parents).CountChildren(s.ds, children, s.par), nil
}

// Indexes returns the source's parent-index cache; its Stats count how
// often a parent set's index was reused.
func (s *MemorySource) Indexes() *IndexCache { return s.idx }

// SameRows reports whether two sources count the same rows: they are
// one source, or two MemorySources over one dataset — a shared
// scorer's and the fit's own.
func SameRows(a, b CountSource) bool {
	if a == b {
		return true
	}
	ma, ok := a.(*MemorySource)
	mb, ok2 := b.(*MemorySource)
	return ok && ok2 && ma.ds == mb.ds
}
