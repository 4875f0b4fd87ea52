package marginal

import (
	"context"
	"fmt"

	"privbayes/internal/dataset"
	"privbayes/internal/parallel"
)

// CountSource supplies exact integer joint count tables without
// exposing rows. It is the one seam between the fit pipeline and the
// data: everything PrivBayes learns reduces to the schema, the row
// count, and [parents..., child] count tables, so the columnar dataset
// in memory (MemorySource, which counts.Provider fills from one scan
// of a row source) and an incrementally maintained store
// (counts.Store) drive the exact same greedy search and conditional
// materialization.
//
// CountTables must return, for each child, the table MaterializeCounts
// would produce over the full dataset: laid out [parents..., child]
// with integer-valued float64 cells. Integer counts merge exactly, so
// any chunking or sharding of the underlying rows yields bit-identical
// tables — the foundation of the out-of-core fit's byte-identity
// contract. A scorer asks its source for one parent set at a time
// unless the source also counts whole batches (MemorySource.CountBatch).
type CountSource interface {
	// Rows returns the number of rows the counts are over.
	Rows() int
	// CountTables returns one exact count table per child, each laid
	// out [parents..., child]. The caller owns the returned tables and
	// may mutate them freely.
	CountTables(parents []Var, children []Var) ([]*Table, error)
}

// CountRequest names one group of joint tables over a shared parent
// set: one request of MemorySource.CountBatch, and the argument of
// counts.Provider's no-op Prefetch.
type CountRequest struct {
	Parents  []Var
	Children []Var
}

// MemorySource is the CountSource over a columnar dataset held in
// memory. It counts a child by bitmask intersection and popcount when
// the joint is small and bit-packed, else by the row walk, which
// CountBatch shares across every parent set of a batch. It keeps no
// per-row state between requests.
type MemorySource struct {
	ds  *dataset.Dataset
	par int
	idx *IndexCache
}

// NewMemorySource returns a count source over ds whose CountTables
// fans out across up to parallelism workers (<= 0 selects GOMAXPROCS,
// 1 counts serially). The counts are the same at every setting.
func NewMemorySource(ds *dataset.Dataset, parallelism int) *MemorySource {
	return &MemorySource{ds: ds, par: parallelism, idx: NewIndexCache(0)}
}

// Rows implements CountSource.
func (s *MemorySource) Rows() int { return s.ds.N() }

// countBlockRows bounds the rows counted between merges: the popcount
// kernel builds its row masks over one block at a time, so each stays at
// 32 KiB whatever the row count, and the walk adds its workers' uint32
// cells into the tables after every block, so none can overflow.
const countBlockRows = 1 << 18

// CountTables implements CountSource as a batch of one request, at the
// source's parallelism. A parent set with more than MaxParentConfigs
// configurations is an error, as it is out of core; θ-usefulness domain
// caps keep fits far below it.
func (s *MemorySource) CountTables(parents []Var, children []Var) ([]*Table, error) {
	var out []*Table
	err := s.CountBatch(context.Background(), s.par, []CountRequest{{Parents: parents, Children: children}},
		func(_ int, tables []*Table) { out = tables })
	return out, err
}

// CountBatch counts every request of a batch and calls use once per
// request with its tables, which CountTables would return for it. A
// request whose every child is popcount-eligible is counted and handed
// to use in one step, as a unit of work of its own; the children of the
// other requests take the row walk, which counts all of them in one
// pass over the rows (see walk.go), or in several when their tables
// hold more than maxPassCells cells, handing each pass's requests to
// use before the next pass starts. parallelism (<= 0 selects
// GOMAXPROCS) bounds the walk's workers and the concurrent calls to
// use, which must be safe to call from several goroutines; the tables
// are the caller's. ctx is checked before every request and every
// 4 096-row chunk of the walk; when it ends, CountBatch returns
// ctx.Err() with some requests never handed to use.
func (s *MemorySource) CountBatch(ctx context.Context, parallelism int, reqs []CountRequest, use func(i int, tables []*Table)) error {
	ds, n := s.ds, s.ds.N()
	tables := make([][]*Table, len(reqs))
	walk := make([][]int, len(reqs)) // children the walk counts
	pop := make([][]int, len(reqs))  // children the popcount kernel counts
	cells := make([]int, len(reqs))  // cells of the walk's tables
	var fused, walked []int
	for i, r := range reqs {
		if _, ok := ParentConfigs(ds, r.Parents); !ok {
			return fmt.Errorf("marginal: parent set %v overflows the code domain", r.Parents)
		}
		ix := s.idx.Get(ds, r.Parents)
		tables[i] = make([]*Table, len(r.Children))
		pk, ok := newPopKernel(ds, r.Parents)
		for j, ch := range r.Children {
			if ok && pk.childOK(ch) {
				pop[i] = append(pop[i], j)
			} else {
				walk[i] = append(walk[i], j)
				cells[i] += ix.PiDim * ch.Size(ds)
			}
		}
		if len(walk[i]) == 0 {
			fused = append(fused, i)
		} else {
			walked = append(walked, i)
		}
	}
	workers := parallel.Workers(parallelism)
	// finish counts request i's popcount children and hands it over.
	finish := func(i int) {
		if len(pop[i]) > 0 {
			children := make([]Var, len(pop[i]))
			dsts := make([][]float64, len(pop[i]))
			for k, j := range pop[i] {
				children[k] = reqs[i].Children[j]
				tables[i][j] = NewTable(ds, append(append([]Var(nil), reqs[i].Parents...), children[k]))
				dsts[k] = tables[i][j].P
			}
			for lo := 0; lo < n; lo += countBlockRows {
				block := ds
				if n > countBlockRows {
					block = ds.Slice(lo, min(lo+countBlockRows, n))
				}
				pk, _ := newPopKernel(block, reqs[i].Parents)
				pk.countChildren(children, dsts)
			}
		}
		t := tables[i]
		tables[i] = nil // a handed-over pass's tables are the caller's to drop
		use(i, t)
	}
	if err := parallel.ForCtx(ctx, workers, len(fused), func(k int) { finish(fused[k]) }); err != nil {
		return err
	}
	gens := genTables{}
	for _, ids := range planPasses(reqs, walked, cells) {
		p := newWalkPass(ds, reqs, ids, walk, tables, gens)
		if err := p.run(ctx, ds, workers); err != nil {
			return err
		}
		if err := parallel.ForCtx(ctx, workers, len(ids), func(k int) { finish(ids[k]) }); err != nil {
			return err
		}
	}
	return nil
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
