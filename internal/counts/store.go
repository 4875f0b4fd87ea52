// Package counts implements the count sources that read rows chunk by
// chunk. All of PrivBayes' data access reduces to [parents..., child]
// joint count tables, and integer counts are exact under any chunking,
// sharding or accumulation order. A Store holds such tables: it
// accumulates chunks, merges across shards, and serves fits as a
// marginal.CountSource, with tables bit-identical to a single pass
// over the full dataset, so any fit driven from them is byte-identical
// to the in-memory fit. A Provider reads a row source once into packed
// columns and counts every table from them in memory.
package counts

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
)

// MaxTableCells bounds one registered table's cell count, protecting
// the store against registrations whose flattened domain would not fit
// in memory. θ-usefulness caps keep real PrivBayes tables far below it.
const MaxTableCells = 1 << 28

// ErrTableTooLarge reports a registration whose table would exceed
// MaxTableCells cells (or overflow the ParentIndex code domain).
var ErrTableTooLarge = errors.New("counts: table exceeds the cell budget")

// group is the per-parent-set unit of accumulation: all registered
// children of one ordered parent set are counted together.
type group struct {
	parents  []marginal.Var
	children []marginal.Var
	tables   []*marginal.Table
}

func (g *group) childTable(child marginal.Var) *marginal.Table {
	for j, c := range g.children {
		if c == child {
			return g.tables[j]
		}
	}
	return nil
}

// Store is a mergeable set of exact count tables over one schema, each
// a marginal.Table laid out [parents..., child] with integer-valued
// cells (exact up to 2⁵³ rows). Tables are declared with Register and
// filled by Accumulate or Scan; stores over disjoint row shards combine
// exactly with Merge. A Store is a marginal.CountSource over the rows
// it has accumulated. All methods are safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	attrs  []dataset.Attribute
	vds    *dataset.Dataset // virtual: schema-only, for Var.Size lookups
	rows   int
	groups []*group
	byKey  map[string]*group

	// Parallelism bounds the workers used per accumulated chunk (<= 0
	// selects GOMAXPROCS). Counting is integer-exact, so the setting
	// never changes the resulting counts.
	Parallelism int
}

// NewStore creates an empty store over the schema.
func NewStore(attrs []dataset.Attribute) *Store {
	return &Store{
		attrs: append([]dataset.Attribute(nil), attrs...),
		vds:   dataset.NewVirtual(attrs, 0),
		byKey: map[string]*group{},
	}
}

// varsKey builds an exact map key for an ordered variable list.
func varsKey(vars []marginal.Var) string {
	b := make([]byte, 0, len(vars)*8)
	for _, v := range vars {
		b = binary.LittleEndian.AppendUint32(b, uint32(v.Attr))
		b = binary.LittleEndian.AppendUint32(b, uint32(v.Level))
	}
	return string(b)
}

// Register declares the [parents..., child] tables for every child,
// allocating zeroed counts. Registering an existing table is a no-op;
// new children join the parent set's existing group. Tables registered
// after rows were accumulated count only subsequent rows — curators
// seed them with a cold scan first.
func (s *Store) Register(parents []marginal.Var, children []marginal.Var) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range append(append([]marginal.Var(nil), parents...), children...) {
		if v.Attr < 0 || v.Attr >= len(s.attrs) {
			return fmt.Errorf("counts: variable %v outside schema of %d attributes", v, len(s.attrs))
		}
	}
	piDim, ok := marginal.ParentConfigs(s.vds, parents)
	if !ok {
		return fmt.Errorf("%w: parent set %v overflows the code domain", ErrTableTooLarge, parents)
	}
	key := varsKey(parents)
	g := s.byKey[key]
	if g == nil {
		g = &group{parents: append([]marginal.Var(nil), parents...)}
		s.byKey[key] = g
		s.groups = append(s.groups, g)
	}
	for _, child := range children {
		if g.childTable(child) != nil {
			continue
		}
		if cells := int64(piDim) * int64(child.Size(s.vds)); cells > MaxTableCells {
			return fmt.Errorf("%w: %v with child %v has %d cells", ErrTableTooLarge, parents, child, cells)
		}
		g.children = append(g.children, child)
		g.tables = append(g.tables, marginal.NewTable(s.vds, append(append([]marginal.Var(nil), parents...), child)))
	}
	return nil
}

// Holds reports whether the [parents..., child] table of every child
// is registered.
func (s *Store) Holds(parents []marginal.Var, children ...marginal.Var) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.byKey[varsKey(parents)]
	for _, child := range children {
		if g == nil || g.childTable(child) == nil {
			return false
		}
	}
	return true
}

// checkSchema verifies a chunk (or peer store) schema matches.
func (s *Store) checkSchema(attrs []dataset.Attribute) error {
	if len(attrs) != len(s.attrs) {
		return fmt.Errorf("counts: schema has %d attributes, store has %d", len(attrs), len(s.attrs))
	}
	for i := range attrs {
		if attrs[i].Name != s.attrs[i].Name || attrs[i].Size() != s.attrs[i].Size() {
			return fmt.Errorf("counts: attribute %d is %s(%d), store has %s(%d)",
				i, attrs[i].Name, attrs[i].Size(), s.attrs[i].Name, s.attrs[i].Size())
		}
	}
	return nil
}

// Accumulate adds every row of the chunk into all registered tables
// and advances the row count. Chunks may arrive in any order and size;
// the resulting counts equal a single pass over the concatenation.
// Every registered table is counted against the chunk in one
// marginal.MemorySource batch: by bitmask and popcount when the joints
// are small and bit-packed, else by one walk of the chunk's rows for
// all parent sets together.
func (s *Store) Accumulate(chunk *dataset.Dataset) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkSchema(chunk.Attrs()); err != nil {
		return err
	}
	reqs := make([]marginal.CountRequest, len(s.groups))
	for i, g := range s.groups {
		reqs[i] = marginal.CountRequest{Parents: g.parents, Children: g.children}
	}
	err := marginal.NewMemorySource(chunk, s.Parallelism).CountBatch(context.Background(), s.Parallelism, reqs,
		func(i int, ts []*marginal.Table) {
			for j, t := range ts {
				addCells(s.groups[i].tables[j], t)
			}
		})
	if err != nil {
		return err
	}
	s.rows += chunk.N()
	return nil
}

// Scan accumulates one full pass over src, checking ctx before each
// chunk; when ctx ends it returns context.Cause(ctx). A failed scan
// leaves a partial pass in the store, which should then be discarded.
func (s *Store) Scan(ctx context.Context, src *dataset.ChunkSource) error {
	sc, err := src.Open()
	if err != nil {
		return fmt.Errorf("counts: open source: %w", err)
	}
	defer sc.Close()
	for {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		chunk, err := sc.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := s.Accumulate(chunk); err != nil {
			return err
		}
	}
}

// Merge adds another store's counts into this one. Both stores must be
// over the same schema and register exactly the same tables — the
// shard-combining contract: shards that accumulated disjoint row
// ranges of one dataset merge into the single-pass result exactly.
func (s *Store) Merge(other *Store) error {
	if s == other {
		return errors.New("counts: cannot merge a store with itself")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	other.mu.Lock()
	defer other.mu.Unlock()
	if err := s.checkSchema(other.attrs); err != nil {
		return err
	}
	if len(other.groups) != len(s.groups) {
		return fmt.Errorf("counts: merge of stores with %d vs %d parent sets", len(other.groups), len(s.groups))
	}
	type pair struct{ dst, src *marginal.Table }
	var pairs []pair
	for key, g := range s.byKey {
		og := other.byKey[key]
		if og == nil {
			return fmt.Errorf("counts: peer store missing parent set %v", g.parents)
		}
		if len(og.children) != len(g.children) {
			return fmt.Errorf("counts: parent set %v has %d vs %d children", g.parents, len(og.children), len(g.children))
		}
		for j, child := range g.children {
			ot := og.childTable(child)
			if ot == nil {
				return fmt.Errorf("counts: peer store missing table (%v | %v)", child, g.parents)
			}
			pairs = append(pairs, pair{g.tables[j], ot})
		}
	}
	// All tables matched; apply only after full validation so a failed
	// merge never leaves partial sums.
	for _, p := range pairs {
		addCells(p.dst, p.src)
	}
	s.rows += other.rows
	return nil
}

// addCells adds src's counts into dst, a table of the same shape.
// Integer-valued float64 cells add exactly.
func addCells(dst, src *marginal.Table) {
	for i, v := range src.P {
		dst.P[i] += v
	}
}

// Rows implements marginal.CountSource: the number of accumulated rows.
func (s *Store) Rows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// Cells returns the total number of count cells across registered
// tables (the store's memory footprint is 8 bytes per cell), and the
// number of tables — the count-store size telemetry.
func (s *Store) Cells() (cells, tables int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.groups {
		for _, t := range g.tables {
			cells += len(t.P)
			tables++
		}
	}
	return cells, tables
}

// CountTables implements marginal.CountSource, serving copies of the
// registered tables. It never reads rows: every requested table must
// already be registered and accumulated.
func (s *Store) CountTables(parents []marginal.Var, children []marginal.Var) ([]*marginal.Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.byKey[varsKey(parents)]
	out := make([]*marginal.Table, len(children))
	for j, child := range children {
		var t *marginal.Table
		if g != nil {
			t = g.childTable(child)
		}
		if t == nil {
			return nil, fmt.Errorf("counts: table (%v | %v) not registered in store", child, parents)
		}
		out[j] = t.Clone()
	}
	return out, nil
}
