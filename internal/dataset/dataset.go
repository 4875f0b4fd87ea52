package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// Dataset is a columnar table of encoded records: one dictionary-encoded
// Column per attribute, bit-packed down to 1–2 bits per value for
// low-arity attributes (see column.go). Columnar storage keeps marginal
// materialization — the hot loop of PrivBayes — cache-friendly, and the
// bit-packed layout is what the popcount counting kernels in
// internal/marginal select on.
type Dataset struct {
	attrs []Attribute
	cols  []*Column
	n     int
}

// New creates an empty dataset with the given schema.
func New(attrs []Attribute) *Dataset {
	return NewWithCapacity(attrs, 0)
}

// NewWithCapacity creates an empty dataset preallocating room for n rows.
func NewWithCapacity(attrs []Attribute, n int) *Dataset {
	d := &Dataset{attrs: append([]Attribute(nil), attrs...)}
	d.cols = make([]*Column, len(attrs))
	for i := range d.attrs {
		d.cols[i] = newColumn(d.attrs[i].Size(), n)
	}
	return d
}

// NewVirtual creates a dataset that carries only the schema and a row
// count — no column storage. It is the seam that lets schema+N-driven
// code (structure search, sensitivity, table shaping) run in the
// out-of-core fit path, where the rows live behind a Scanner instead
// of in memory. Row accessors (Value, Record, Col, Append) must not
// be used on a virtual dataset; Col returns nil.
func NewVirtual(attrs []Attribute, n int) *Dataset {
	return &Dataset{attrs: append([]Attribute(nil), attrs...), n: n}
}

// Slice returns a zero-copy view of rows [lo, hi): the chunk shares
// the receiver's column storage. Mutating either dataset's shared rows
// is visible in both.
func (d *Dataset) Slice(lo, hi int) *Dataset {
	if lo < 0 || hi > d.n || lo > hi {
		panic(fmt.Sprintf("dataset: slice [%d, %d) outside [0, %d)", lo, hi, d.n))
	}
	s := &Dataset{attrs: d.attrs, n: hi - lo}
	if d.cols != nil {
		s.cols = make([]*Column, len(d.cols))
		for i := range d.cols {
			s.cols[i] = d.cols[i].view(lo, hi)
		}
	}
	return s
}

// N returns the number of rows.
func (d *Dataset) N() int { return d.n }

// D returns the number of attributes (the paper's d).
func (d *Dataset) D() int { return len(d.attrs) }

// Attr returns the schema of column i.
func (d *Dataset) Attr(i int) *Attribute { return &d.attrs[i] }

// Attrs returns the full schema. The caller must not mutate it.
func (d *Dataset) Attrs() []Attribute { return d.attrs }

// AttrIndex returns the column index of the attribute with the given
// name, or -1 if absent.
func (d *Dataset) AttrIndex(name string) int {
	for i := range d.attrs {
		if d.attrs[i].Name == name {
			return i
		}
	}
	return -1
}

// Col returns the column of attribute i, or nil on a virtual dataset.
func (d *Dataset) Col(i int) *Column {
	if d.cols == nil {
		return nil
	}
	return d.cols[i]
}

// ColumnCodes returns the codes of attribute i as a widened []uint16,
// decoding bit-packed columns (zero-copy only for 16-bit columns). The
// caller must not mutate the result. Counting paths should prefer
// Col's DecodeRange or FillValueMask; this is the convenience accessor
// for cold full-column consumers.
func (d *Dataset) ColumnCodes(i int) []uint16 {
	if d.cols == nil || d.n == 0 {
		return nil
	}
	return d.cols[i].DecodeRange(0, d.n, nil)
}

// Value returns the code at (row, col).
func (d *Dataset) Value(row, col int) int { return int(d.cols[col].Get(row)) }

// Append adds a record given as one code per attribute.
func (d *Dataset) Append(rec []uint16) {
	if len(rec) != len(d.attrs) {
		panic(fmt.Sprintf("dataset: record has %d values, want %d", len(rec), len(d.attrs)))
	}
	for i, v := range rec {
		if int(v) >= d.attrs[i].Size() {
			panic(fmt.Sprintf("dataset: code %d out of range for attribute %s (size %d)", v, d.attrs[i].Name, d.attrs[i].Size()))
		}
		d.cols[i].Append(v)
	}
	d.n++
}

// AppendColumns bulk-appends a block of rows given column-major: cols
// holds one code slice per attribute, all the same length. It is the
// columnar fill path the chunk scanners use — bit-packed columns pack
// 64 codes per word instead of paying per-row bit surgery.
func (d *Dataset) AppendColumns(cols [][]uint16) {
	if len(cols) != len(d.attrs) {
		panic(fmt.Sprintf("dataset: block has %d columns, want %d", len(cols), len(d.attrs)))
	}
	if len(cols) == 0 {
		return
	}
	rows := len(cols[0])
	for i, col := range cols {
		if len(col) != rows {
			panic(fmt.Sprintf("dataset: block column %d has %d rows, column 0 has %d", i, len(col), rows))
		}
		size := d.attrs[i].Size()
		for _, v := range col {
			if int(v) >= size {
				panic(fmt.Sprintf("dataset: code %d out of range for attribute %s (size %d)", v, d.attrs[i].Name, size))
			}
		}
	}
	for i, col := range cols {
		d.cols[i].AppendBlock(col)
	}
	d.n += rows
}

// appendChunk appends every row of chunk, decoding each column through
// buf, and returns buf for reuse. A chunk whose columns do not match
// the schema's domains is an error: a caller-built source may yield it.
func (d *Dataset) appendChunk(chunk *Dataset, buf []uint16) ([]uint16, error) {
	if len(chunk.cols) != len(d.cols) {
		return buf, fmt.Errorf("dataset: chunk has %d columns, schema has %d", len(chunk.cols), len(d.cols))
	}
	for i, col := range d.cols {
		if chunk.cols[i].size != col.size {
			return buf, fmt.Errorf("dataset: chunk column %d has domain %d, schema has %d", i+1, chunk.cols[i].size, col.size)
		}
	}
	buf = growU16(buf, chunk.n)
	for i, col := range d.cols {
		col.AppendBlock(chunk.cols[i].DecodeRange(0, chunk.n, buf))
	}
	d.n += chunk.n
	return buf, nil
}

// Record copies row i into dst (allocating when dst is short) and
// returns it.
func (d *Dataset) Record(i int, dst []uint16) []uint16 {
	if cap(dst) < len(d.attrs) {
		dst = make([]uint16, len(d.attrs))
	}
	dst = dst[:len(d.attrs)]
	for c := range d.cols {
		dst[c] = d.cols[c].Get(i)
	}
	return dst
}

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{attrs: d.attrs, n: d.n}
	if d.cols != nil {
		c.cols = make([]*Column, len(d.cols))
		for i := range d.cols {
			c.cols[i] = d.cols[i].clone()
		}
	}
	return c
}

// Subset returns a new dataset containing only the given rows, in order.
func (d *Dataset) Subset(rows []int) *Dataset {
	s := NewWithCapacity(d.attrs, len(rows))
	for i := range d.cols {
		src, dst := d.cols[i], s.cols[i]
		for _, r := range rows {
			dst.Append(src.Get(r))
		}
	}
	s.n = len(rows)
	return s
}

// Sample returns a uniform random subsample of m rows without
// replacement (m is clamped to N).
func (d *Dataset) Sample(m int, rng *rand.Rand) *Dataset {
	if m >= d.n {
		return d.Clone()
	}
	perm := rng.Perm(d.n)[:m]
	return d.Subset(perm)
}

// Split partitions the rows into a training set with the given fraction
// and a test set with the remainder, after a seeded shuffle. The paper
// uses an 80/20 split for the classification task.
func (d *Dataset) Split(trainFrac float64, rng *rand.Rand) (train, test *Dataset) {
	perm := rng.Perm(d.n)
	cut := int(trainFrac * float64(d.n))
	return d.Subset(perm[:cut]), d.Subset(perm[cut:])
}

// TotalDomainLog2 returns log2 of the product of attribute domain sizes
// (the paper's "domain size" column of Table 5).
func (d *Dataset) TotalDomainLog2() float64 {
	var bits float64
	for i := range d.attrs {
		bits += math.Log2(float64(d.attrs[i].Size()))
	}
	return bits
}
