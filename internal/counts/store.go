// Package counts implements the mergeable sufficient-statistic layer of
// the out-of-core fit path: additive integer joint count tables keyed by
// the marginal.ParentIndex code encoding. All of PrivBayes' data access
// reduces to [parents..., child] count tables, and integer counts are
// exact under any chunking, sharding or accumulation order — so a Store
// accumulated chunk by chunk (or merged across shards) yields tables
// bit-identical to a single pass over the full dataset, and any fit
// driven from them is byte-identical to the in-memory fit.
package counts

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// Table is one additive integer count table laid out [parents...,
// child], row-major with the child varying fastest — cell index
// parentCode·|dom(child)| + childCode, exactly the marginal.ParentIndex
// encoding.
type Table struct {
	Vars   []marginal.Var
	Dims   []int
	Counts []int64
}

// Marginal converts the integer table into a float64 count table of
// the shape ParentIndex.CountChildren produces.
func (t *Table) Marginal() *marginal.Table {
	p := make([]float64, len(t.Counts))
	for i, c := range t.Counts {
		p[i] = float64(c)
	}
	return &marginal.Table{
		Vars: append([]marginal.Var(nil), t.Vars...),
		Dims: append([]int(nil), t.Dims...),
		P:    p,
	}
}

// group is the per-parent-set unit of accumulation: all registered
// children of one ordered parent set share one ParentIndex scan.
type group struct {
	parents  []marginal.Var
	children []marginal.Var
	tables   []*Table
}

func (g *group) childTable(child marginal.Var) *Table {
	for j, c := range g.children {
		if c == child {
			return g.tables[j]
		}
	}
	return nil
}

// Store is a mergeable set of integer count tables over one schema.
// Tables are declared with Register and maintained by Accumulate;
// stores over disjoint row shards combine exactly with Merge. All
// methods are safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	attrs  []dataset.Attribute
	vds    *dataset.Dataset // virtual: schema-only, for Var.Size lookups
	rows   int64
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

// Attrs returns the store's schema. The caller must not mutate it.
func (s *Store) Attrs() []dataset.Attribute { return s.attrs }

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
// new children join the parent set's existing scan group. Tables
// registered after rows were accumulated count only subsequent rows —
// curators seed them with a cold scan first.
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
		xdim := child.Size(s.vds)
		if int64(piDim)*int64(xdim) > MaxTableCells {
			return fmt.Errorf("%w: %v with child %v has %d cells", ErrTableTooLarge, parents, child, int64(piDim)*int64(xdim))
		}
		vars := append(append([]marginal.Var(nil), parents...), child)
		dims := make([]int, len(vars))
		for i, v := range vars {
			dims[i] = v.Size(s.vds)
		}
		g.children = append(g.children, child)
		g.tables = append(g.tables, &Table{Vars: vars, Dims: dims, Counts: make([]int64, piDim*xdim)})
	}
	return nil
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
// Counting rides the shared-scan engine: per parent set, joints of at
// most 64 cells over bit-packed columns count by bitmask+popcount
// without ever building per-row codes, and the rest share one fused
// row walk.
func (s *Store) Accumulate(chunk *dataset.Dataset) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkSchema(chunk.Attrs()); err != nil {
		return err
	}
	for _, g := range s.groups {
		ix := marginal.BuildParentIndex(chunk, g.parents, s.Parallelism)
		ts := ix.CountChildren(chunk, g.children, s.Parallelism)
		for j, t := range ts {
			dst := g.tables[j].Counts
			for i, v := range t.P {
				dst[i] += int64(v)
			}
		}
	}
	s.rows += int64(chunk.N())
	return nil
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
	type pair struct{ dst, src *Table }
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
		for i, v := range p.src.Counts {
			p.dst.Counts[i] += v
		}
	}
	s.rows += other.rows
	return nil
}

// Rows returns the number of accumulated rows.
func (s *Store) Rows() int64 {
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
			cells += len(t.Counts)
			tables++
		}
	}
	return cells, tables
}

// CountTable returns a copy of the registered table for (parents...,
// child) as a float64 count table, or nil when not registered.
func (s *Store) CountTable(parents []marginal.Var, child marginal.Var) *marginal.Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.byKey[varsKey(parents)]
	if g == nil {
		return nil
	}
	t := g.childTable(child)
	if t == nil {
		return nil
	}
	return t.Marginal()
}

// StoreSource adapts a Store into the fit pipeline's count-source
// seam. Every table the fit will request must already be registered
// and fully accumulated: it serves purely from memory and never scans.
type StoreSource struct {
	s *Store
}

// Source returns a count source serving this store's tables.
func (s *Store) Source() *StoreSource { return &StoreSource{s: s} }

// Rows implements marginal.CountSource.
func (ss *StoreSource) Rows() int { return int(ss.s.Rows()) }

// CountTables implements marginal.CountSource, serving copies of the
// registered tables.
func (ss *StoreSource) CountTables(parents []marginal.Var, children []marginal.Var) ([]*marginal.Table, error) {
	out := make([]*marginal.Table, len(children))
	for j, child := range children {
		t := ss.s.CountTable(parents, child)
		if t == nil {
			return nil, fmt.Errorf("counts: table (%v | %v) not registered in store", child, parents)
		}
		out[j] = t
	}
	return out, nil
}
