package dataset

// Columnar, dictionary-encoded storage. Every attribute's codes live in
// a Column whose physical width is chosen from the domain size: 1 or 2
// bits per code for the low-arity attributes that dominate PrivBayes
// workloads (binary NLTCS-style attributes, small categoricals), byte
// codes up to 256 values, and short codes above that. Bit-packed
// columns are stored as bit planes — plane j holds bit j of every row's
// code — so the per-value row bitmask any relational selection needs is
// one or two word operations per 64 rows, and low-arity marginal
// counting becomes bitmask intersection plus popcount (see
// internal/marginal's popcount kernel) instead of a row walk.

import "fmt"

// MaxDomain bounds an attribute's raw domain size: codes must fit the
// widest physical representation (uint16).
const MaxDomain = 1 << 16

// Column is one attribute's dictionary-encoded code vector.
type Column struct {
	size  int // domain size; codes are in [0, size)
	width int // bits per code: 1, 2, 8 or 16
	n     int
	off   int // bit offset of logical row 0 within planes (packed views)

	planes [][]uint64 // width <= 2: one plane per code bit
	b8     []uint8    // width 8
	b16    []uint16   // width 16
}

// widthFor picks the physical code width for a domain size.
func widthFor(size int) int {
	switch {
	case size <= 2:
		return 1
	case size <= 4:
		return 2
	case size <= 256:
		return 8
	default:
		return 16
	}
}

// newColumn creates an empty column for a domain of the given size,
// preallocating capRows rows of storage.
func newColumn(size, capRows int) *Column {
	if size > MaxDomain {
		panic(fmt.Sprintf("dataset: attribute domain size %d exceeds %d (uint16 codes)", size, MaxDomain))
	}
	c := &Column{size: size, width: widthFor(size)}
	switch c.width {
	case 8:
		c.b8 = make([]uint8, 0, capRows)
	case 16:
		c.b16 = make([]uint16, 0, capRows)
	default:
		c.planes = make([][]uint64, c.width)
		for p := range c.planes {
			c.planes[p] = make([]uint64, 0, (capRows+63)/64)
		}
	}
	return c
}

// Len returns the number of rows.
func (c *Column) Len() int { return c.n }

// Size returns the domain size the column encodes.
func (c *Column) Size() int { return c.size }

// Maskable reports whether the column is bit-packed (width <= 2), i.e.
// whether per-value row bitmasks derive from its planes in O(n/64) word
// operations — the eligibility test of the popcount counting kernels.
func (c *Column) Maskable() bool { return c.width <= 2 }

// Get returns the code at row i.
func (c *Column) Get(i int) uint16 {
	switch c.width {
	case 16:
		return c.b16[i]
	case 8:
		return uint16(c.b8[i])
	case 1:
		idx := c.off + i
		return uint16(c.planes[0][idx>>6]>>(uint(idx)&63)) & 1
	default: // 2
		idx := c.off + i
		w, b := idx>>6, uint(idx)&63
		return uint16(c.planes[0][w]>>b)&1 | uint16(c.planes[1][w]>>b)&1<<1
	}
}

// Append adds one code. The caller validates v < Size().
func (c *Column) Append(v uint16) {
	switch c.width {
	case 16:
		c.b16 = append(c.b16, v)
	case 8:
		c.b8 = append(c.b8, uint8(v))
	default:
		c.appendPacked(v)
	}
	c.n++
}

func (c *Column) appendPacked(v uint16) {
	idx := c.off + c.n
	w, b := idx>>6, uint(idx)&63
	for p := 0; p < c.width; p++ {
		for len(c.planes[p]) <= w {
			c.planes[p] = append(c.planes[p], 0)
		}
		c.planes[p][w] |= uint64(v>>p&1) << b
	}
}

// AppendBlock bulk-appends a block of codes, packing bit-packed columns
// word-at-a-time (64 codes per plane word) instead of row by row. It is
// the columnar-fill primitive behind Dataset.AppendColumns and the
// chunk scanners. The caller validates the codes.
func (c *Column) AppendBlock(vals []uint16) {
	switch c.width {
	case 16:
		c.b16 = append(c.b16, vals...)
		c.n += len(vals)
	case 8:
		for _, v := range vals {
			c.b8 = append(c.b8, uint8(v))
		}
		c.n += len(vals)
	default:
		i := 0
		for i < len(vals) && (c.off+c.n)&63 != 0 {
			c.appendPacked(vals[i])
			c.n++
			i++
		}
		if c.width == 1 {
			for ; i+64 <= len(vals); i += 64 {
				var w0 uint64
				for b, v := range vals[i : i+64] {
					w0 |= uint64(v&1) << uint(b)
				}
				c.planes[0] = append(c.planes[0], w0)
				c.n += 64
			}
		} else {
			for ; i+64 <= len(vals); i += 64 {
				var w0, w1 uint64
				for b, v := range vals[i : i+64] {
					w0 |= uint64(v&1) << uint(b)
					w1 |= uint64(v>>1&1) << uint(b)
				}
				c.planes[0] = append(c.planes[0], w0)
				c.planes[1] = append(c.planes[1], w1)
				c.n += 64
			}
		}
		for ; i < len(vals); i++ {
			c.appendPacked(vals[i])
			c.n++
		}
	}
}

// DecodeRange returns the codes of rows [lo, hi). Short-code columns
// return their underlying storage zero-copy; packed columns decode into
// buf (allocating when buf is short). The caller must not mutate the
// result, and must treat it as invalid after the next DecodeRange with
// the same buf.
func (c *Column) DecodeRange(lo, hi int, buf []uint16) []uint16 {
	m := hi - lo
	switch c.width {
	case 16:
		return c.b16[lo:hi:hi]
	case 8:
		buf = growU16(buf, m)
		for i, v := range c.b8[lo:hi] {
			buf[i] = uint16(v)
		}
		return buf
	case 1:
		buf = growU16(buf, m)
		p0 := c.planes[0]
		idx := c.off + lo
		for i := 0; i < m; {
			w, b := idx>>6, int(uint(idx)&63)
			bits0 := p0[w] >> uint(b)
			take := 64 - b
			if take > m-i {
				take = m - i
			}
			for j := 0; j < take; j++ {
				buf[i+j] = uint16(bits0>>uint(j)) & 1
			}
			i += take
			idx += take
		}
		return buf
	default: // 2
		buf = growU16(buf, m)
		p0, p1 := c.planes[0], c.planes[1]
		idx := c.off + lo
		for i := 0; i < m; {
			w, b := idx>>6, int(uint(idx)&63)
			bits0, bits1 := p0[w]>>uint(b), p1[w]>>uint(b)
			take := 64 - b
			if take > m-i {
				take = m - i
			}
			for j := 0; j < take; j++ {
				buf[i+j] = uint16(bits0>>uint(j))&1 | uint16(bits1>>uint(j))&1<<1
			}
			i += take
			idx += take
		}
		return buf
	}
}

// Bytes returns the codes of rows [lo, hi) of a byte-coded column in
// place; it reports false when the column has another width. Together
// with DecodeRange, zero-copy at width 16, it lets a row loop read
// every column wider than two bits without a widening copy. The caller
// must not mutate the result.
func (c *Column) Bytes(lo, hi int) ([]uint8, bool) {
	if c.width != 8 {
		return nil, false
	}
	return c.b8[lo:hi:hi], true
}

func growU16(buf []uint16, n int) []uint16 {
	if cap(buf) < n {
		return make([]uint16, n)
	}
	return buf[:n]
}

// MaskWords returns the word count of a row bitmask over the column.
func (c *Column) MaskWords() int { return (c.n + 63) / 64 }

// FillValueMask fills dst[:MaskWords()] with the selection bitmask of
// code v: bit r is set iff Get(r) == v. Bits at and beyond Len() are
// zero. Only Maskable columns support it. For word-aligned columns the
// mask derives from the bit planes at one or two word operations per 64
// rows; unaligned views (rare — only non-word-aligned Slice chunks)
// fall back to a row loop.
func (c *Column) FillValueMask(v int, dst []uint64) {
	if !c.Maskable() {
		panic("dataset: FillValueMask on a non-bit-packed column")
	}
	nw := c.MaskWords()
	dst = dst[:nw]
	if c.off&63 != 0 {
		for w := range dst {
			dst[w] = 0
		}
		for r := 0; r < c.n; r++ {
			if int(c.Get(r)) == v {
				dst[r>>6] |= 1 << (uint(r) & 63)
			}
		}
		return
	}
	base := c.off >> 6
	p0 := c.planes[0][base:]
	if c.width == 1 {
		if v == 1 {
			copy(dst, p0[:nw])
		} else {
			for w := range dst {
				dst[w] = ^p0[w]
			}
		}
	} else {
		p1 := c.planes[1][base:]
		switch v {
		case 0:
			for w := range dst {
				dst[w] = ^p0[w] & ^p1[w]
			}
		case 1:
			for w := range dst {
				dst[w] = p0[w] & ^p1[w]
			}
		case 2:
			for w := range dst {
				dst[w] = ^p0[w] & p1[w]
			}
		default:
			for w := range dst {
				dst[w] = p0[w] & p1[w]
			}
		}
	}
	if tail := uint(c.n) & 63; tail != 0 {
		dst[nw-1] &= 1<<tail - 1
	}
}

// view returns a zero-copy view of rows [lo, hi): storage is shared
// with the receiver. Packed views keep a bit offset when lo is not
// word-aligned.
func (c *Column) view(lo, hi int) *Column {
	v := &Column{size: c.size, width: c.width, n: hi - lo}
	switch c.width {
	case 16:
		v.b16 = c.b16[lo:hi:hi]
	case 8:
		v.b8 = c.b8[lo:hi:hi]
	default:
		start := c.off + lo
		end := (c.off + hi + 63) >> 6
		v.off = start & 63
		v.planes = make([][]uint64, c.width)
		for p := range v.planes {
			v.planes[p] = c.planes[p][start>>6 : end : end]
		}
	}
	return v
}

// clone returns a deep copy.
func (c *Column) clone() *Column {
	d := &Column{size: c.size, width: c.width, n: c.n, off: c.off}
	if c.planes != nil {
		d.planes = make([][]uint64, len(c.planes))
		for p := range c.planes {
			d.planes[p] = append([]uint64(nil), c.planes[p]...)
		}
	}
	d.b8 = append([]uint8(nil), c.b8...)
	d.b16 = append([]uint16(nil), c.b16...)
	return d
}
