package dataset

import (
	"math/rand"
	"testing"
)

// TestColumnWidthSelection pins the width ladder: bit-packed for
// low-arity columns, byte and short codes above.
func TestColumnWidthSelection(t *testing.T) {
	cases := []struct{ size, want int }{
		{2, 1}, {3, 2}, {4, 2}, {5, 8}, {256, 8}, {257, 16}, {1 << 16, 16},
	}
	for _, c := range cases {
		if got := widthFor(c.size); got != c.want {
			t.Errorf("widthFor(%d) = %d, want %d", c.size, got, c.want)
		}
	}
	if !newColumn(2, 0).Maskable() {
		t.Error("size-2 column should be maskable")
	}
}

// randCodes draws n codes uniform over the domain.
func randCodes(n, size int, rng *rand.Rand) []uint16 {
	out := make([]uint16, n)
	for i := range out {
		out[i] = uint16(rng.Intn(size))
	}
	return out
}

// TestColumnRoundTrip checks Append/AppendBlock/Get/DecodeRange agree
// with the plain slice for every width, including word-boundary
// straddling lengths.
func TestColumnRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{2, 3, 4, 7, 300} {
		for _, n := range []int{0, 1, 63, 64, 65, 129, 1000} {
			want := randCodes(n, size, rng)

			// Row-at-a-time fill.
			byRow := newColumn(size, 0)
			for _, v := range want {
				byRow.Append(v)
			}
			// Bulk fill, split at an odd point so AppendBlock exercises
			// both the unaligned prologue and the word-aligned body.
			bulk := newColumn(size, n)
			cut := n / 3
			bulk.AppendBlock(want[:cut])
			bulk.AppendBlock(want[cut:])

			for name, c := range map[string]*Column{"row": byRow, "bulk": bulk} {
				if c.Len() != n {
					t.Fatalf("size %d n %d %s: Len = %d", size, n, name, c.Len())
				}
				for i, w := range want {
					if got := c.Get(i); got != w {
						t.Fatalf("size %d n %d %s: Get(%d) = %d, want %d", size, n, name, i, got, w)
					}
				}
				lo, hi := 0, n
				if n > 10 {
					lo, hi = 3, n-2
				}
				dec := c.DecodeRange(lo, hi, nil)
				for i, w := range want[lo:hi] {
					if dec[i] != w {
						t.Fatalf("size %d n %d %s: DecodeRange[%d] = %d, want %d", size, n, name, i, dec[i], w)
					}
				}
			}
		}
	}
}

// TestColumnValueMask checks FillValueMask against a per-row Get scan,
// on aligned columns and on unaligned views.
func TestColumnValueMask(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, size := range []int{2, 3, 4} {
		n := 517
		want := randCodes(n, size, rng)
		c := newColumn(size, n)
		c.AppendBlock(want)

		check := func(name string, col *Column) {
			t.Helper()
			mask := make([]uint64, col.MaskWords())
			for v := 0; v < size; v++ {
				col.FillValueMask(v, mask)
				for r := 0; r < col.Len(); r++ {
					got := mask[r>>6]>>(uint(r)&63)&1 == 1
					if got != (int(col.Get(r)) == v) {
						t.Fatalf("size %d %s value %d row %d: mask bit %v", size, name, v, r, got)
					}
				}
				for r := col.Len(); r < 64*col.MaskWords(); r++ {
					if mask[r>>6]>>(uint(r)&63)&1 == 1 {
						t.Fatalf("size %d %s value %d: tail bit %d set", size, name, v, r)
					}
				}
			}
		}
		check("full", c)
		check("aligned-view", c.view(64, 384))
		check("unaligned-view", c.view(7, 422))
	}
}

// TestColumnViewClone checks zero-copy views and deep clones read back
// the same codes, and that a clone is independent of its source.
func TestColumnViewClone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{2, 4, 9, 400} {
		n := 300
		want := randCodes(n, size, rng)
		c := newColumn(size, n)
		c.AppendBlock(want)

		v := c.view(17, 203)
		if v.Len() != 203-17 {
			t.Fatalf("view len %d", v.Len())
		}
		for i := 0; i < v.Len(); i++ {
			if v.Get(i) != want[17+i] {
				t.Fatalf("size %d view Get(%d) = %d, want %d", size, i, v.Get(i), want[17+i])
			}
		}
		// Views of views compose.
		vv := v.view(5, 100)
		for i := 0; i < vv.Len(); i++ {
			if vv.Get(i) != want[22+i] {
				t.Fatalf("size %d nested view Get(%d) = %d, want %d", size, i, vv.Get(i), want[22+i])
			}
		}

		cl := c.clone()
		cl.Append(uint16(0))
		if cl.Len() != n+1 || c.Len() != n {
			t.Fatalf("clone length leak: %d / %d", cl.Len(), c.Len())
		}
		for i := range want {
			if cl.Get(i) != want[i] {
				t.Fatalf("size %d clone Get(%d) mismatch", size, i)
			}
		}
	}
}
