package marginal

import (
	"math/rand"
	"testing"

	"privbayes/internal/dataset"
)

// withRowMajor runs fn with the popcount kernel disabled, so the two
// counting engines can be compared on identical inputs.
func withRowMajor(fn func()) {
	old := disablePopcount
	disablePopcount = true
	defer func() { disablePopcount = old }()
	fn()
}

// mixedData builds a dataset whose attributes span every physical
// column width: binary (1-bit), ternary/quaternary (2-bit), and a wide
// byte-coded attribute the popcount kernel must refuse. Attributes 5–9
// are five more binary ones, for parent sets up to and past the
// kernel's 64-cell limit.
func mixedData(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	labels := func(k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = string(rune('a' + i))
		}
		return out
	}
	attrs := []dataset.Attribute{
		dataset.NewCategorical("b0", labels(2)),
		dataset.NewCategorical("b1", labels(2)),
		dataset.NewCategorical("t0", labels(3)),
		dataset.NewCategorical("q0", labels(4)),
		dataset.NewCategorical("wide", labels(9)),
		dataset.NewCategorical("b2", labels(2)),
		dataset.NewCategorical("b3", labels(2)),
		dataset.NewCategorical("b4", labels(2)),
		dataset.NewCategorical("b5", labels(2)),
		dataset.NewCategorical("b6", labels(2)),
	}
	d := dataset.NewWithCapacity(attrs, n)
	rec := make([]uint16, len(attrs))
	for r := 0; r < n; r++ {
		for c, a := range attrs {
			rec[c] = uint16(rng.Intn(a.Size()))
		}
		d.Append(rec)
	}
	return d
}

// TestPopcountCountsMatchRowMajor checks MaterializeCounts produces
// identical tables with the popcount kernel on and off, over 1–7-way
// marginals spanning eligible and ineligible variable mixes, and that
// the kernel takes exactly the joints of at most 64 cells over maskable
// variables.
func TestPopcountCountsMatchRowMajor(t *testing.T) {
	// 500 rows straddles several mask words plus a partial tail word.
	ds := mixedData(500, 11)
	cases := []struct {
		vars []Var
		pop  bool // counted by the popcount kernel
	}{
		{[]Var{{Attr: 0}}, true},
		{[]Var{{Attr: 2}}, true},
		{[]Var{{Attr: 4}}, false}, // wide: kernel refuses, still must agree
		{[]Var{{Attr: 0}, {Attr: 1}}, true},
		{[]Var{{Attr: 1}, {Attr: 2}}, true},
		{[]Var{{Attr: 3}, {Attr: 2}}, true},
		{[]Var{{Attr: 0}, {Attr: 1}, {Attr: 2}}, true},
		{[]Var{{Attr: 2}, {Attr: 3}, {Attr: 0}}, true},
		{[]Var{{Attr: 0}, {Attr: 4}, {Attr: 1}}, false},
		// Two 4-valued parents, 4-valued child: 64 cells. A repeated
		// var is legal.
		{[]Var{{Attr: 3}, {Attr: 3}, {Attr: 3}}, true},
		// 3, 4 and 5 binary parents; the last is 64 cells.
		{[]Var{{Attr: 0}, {Attr: 1}, {Attr: 5}, {Attr: 6}}, true},
		{[]Var{{Attr: 0}, {Attr: 1}, {Attr: 5}, {Attr: 6}, {Attr: 7}}, true},
		{[]Var{{Attr: 0}, {Attr: 1}, {Attr: 5}, {Attr: 6}, {Attr: 7}, {Attr: 8}}, true},
		// 128 cells: three 4-valued parents, or six binary parents,
		// with a binary child.
		{[]Var{{Attr: 3}, {Attr: 3}, {Attr: 3}, {Attr: 0}}, false},
		{[]Var{{Attr: 0}, {Attr: 1}, {Attr: 5}, {Attr: 6}, {Attr: 7}, {Attr: 8}, {Attr: 9}}, false},
	}
	for _, tc := range cases {
		if _, ok := popcountCounts(ds, tc.vars); ok != tc.pop {
			t.Errorf("%v: popcount kernel took it = %v, want %v", tc.vars, ok, tc.pop)
		}
		fast := MaterializeCounts(ds, tc.vars)
		var ref *Table
		withRowMajor(func() { ref = MaterializeCounts(ds, tc.vars) })
		if len(fast.P) != len(ref.P) {
			t.Fatalf("%v: table sizes differ: %d vs %d", tc.vars, len(fast.P), len(ref.P))
		}
		for i := range ref.P {
			if fast.P[i] != ref.P[i] {
				t.Fatalf("%v cell %d: popcount %v, row-major %v", tc.vars, i, fast.P[i], ref.P[i])
			}
		}
	}
}

// TestPopcountMaterializeBitIdentical checks the probability tables —
// exact counts scaled once by 1/n — are bit-identical whichever engine
// counted them.
func TestPopcountMaterializeBitIdentical(t *testing.T) {
	ds := mixedData(467, 12)
	varSets := [][]Var{
		{{Attr: 0}},
		{{Attr: 0}, {Attr: 3}},
		{{Attr: 1}, {Attr: 2}, {Attr: 3}},
	}
	for _, vars := range varSets {
		fast := Materialize(ds, vars)
		var ref *Table
		withRowMajor(func() { ref = Materialize(ds, vars) })
		for i := range ref.P {
			if fast.P[i] != ref.P[i] {
				t.Fatalf("%v cell %d: popcount path %.17g, serial row walk %.17g",
					vars, i, fast.P[i], ref.P[i])
			}
		}
	}
}

// TestCountChildrenPopcountMatchesRowWalk checks a MemorySource request
// splits its children between the popcount kernel and the row walk
// without changing any table: mixed eligible / wide / over-64-cell /
// generalized children against the same parent set.
// The kernel must accept the parents and every child exactly in the
// cases marked popOnly.
func TestCountChildrenPopcountMatchesRowWalk(t *testing.T) {
	ds := hierData(700, 13)
	mixed := mixedData(700, 14)
	binary5 := []Var{{Attr: 0}, {Attr: 1}, {Attr: 5}, {Attr: 6}, {Attr: 7}}
	cases := []struct {
		ds       *dataset.Dataset
		parents  []Var
		children []Var
		popOnly  bool // every child is kernel-eligible
	}{
		{mixed, nil, []Var{{Attr: 0}, {Attr: 4}}, false},
		{mixed, []Var{{Attr: 0}}, []Var{{Attr: 1}, {Attr: 2}, {Attr: 4}}, false},
		{mixed, []Var{{Attr: 0}, {Attr: 2}}, []Var{{Attr: 1}, {Attr: 3}, {Attr: 4}}, false},
		{mixed, []Var{{Attr: 4}}, []Var{{Attr: 0}}, false}, // wide parent: whole set on row walk
		// hierData has a taxonomy: generalized parent and child are
		// ineligible and must agree through the row walk.
		{ds, []Var{{Attr: 0, Level: 1}}, []Var{{Attr: 1}}, false},
		{ds, []Var{{Attr: 1}}, []Var{{Attr: 0, Level: 1}, {Attr: 0}}, false},
		// Three parents: all binary with eligible children (at most 32
		// cells), then 24 configurations whose ternary child (72 cells)
		// and wide child fall to the row walk.
		{mixed, []Var{{Attr: 0}, {Attr: 1}, {Attr: 5}}, []Var{{Attr: 6}, {Attr: 2}, {Attr: 3}}, true},
		{mixed, []Var{{Attr: 3}, {Attr: 2}, {Attr: 0}}, []Var{{Attr: 1}, {Attr: 2}, {Attr: 4}}, false},
		// Five binary parents: binary children make 64 cells; ternary
		// (96), quaternary (128) and wide children fall to the row walk.
		{mixed, binary5, []Var{{Attr: 8}, {Attr: 9}}, true},
		{mixed, binary5, []Var{{Attr: 8}, {Attr: 2}, {Attr: 3}, {Attr: 4}}, false},
	}
	for _, tc := range cases {
		pk, all := newPopKernel(tc.ds, tc.parents)
		for _, ch := range tc.children {
			all = all && pk.childOK(ch)
		}
		if all != tc.popOnly {
			t.Errorf("parents %v children %v: every child on the popcount kernel = %v, want %v",
				tc.parents, tc.children, all, tc.popOnly)
		}
		for _, par := range []int{1, 4} {
			fast := countTables(t, tc.ds, tc.parents, tc.children, par)
			var ref []*Table
			withRowMajor(func() {
				ref = countTables(t, tc.ds, tc.parents, tc.children, par)
			})
			for j := range ref {
				for i := range ref[j].P {
					if fast[j].P[i] != ref[j].P[i] {
						t.Fatalf("parents %v child %d cell %d (par %d): popcount %v, row walk %v",
							tc.parents, j, i, par, fast[j].P[i], ref[j].P[i])
					}
				}
			}
		}
	}
}

// TestPopcountOnSlices checks counting on zero-copy chunk views —
// including word-unaligned ones, where the mask path falls back to a
// row loop — matches the row walk, for a 2-parent and a 4-parent list.
// This is the shape the out-of-core Accumulate path feeds the kernel.
func TestPopcountOnSlices(t *testing.T) {
	ds := mixedData(400, 16)
	for _, vars := range [][]Var{
		{{Attr: 0}, {Attr: 2}},
		{{Attr: 0}, {Attr: 1}, {Attr: 5}, {Attr: 6}, {Attr: 3}}, // 64 cells
	} {
		for _, bounds := range [][2]int{{0, 400}, {0, 64}, {64, 400}, {7, 133}, {129, 258}} {
			chunk := ds.Slice(bounds[0], bounds[1])
			fast := MaterializeCounts(chunk, vars)
			var ref *Table
			withRowMajor(func() { ref = MaterializeCounts(chunk, vars) })
			for i := range ref.P {
				if fast.P[i] != ref.P[i] {
					t.Fatalf("%v slice %v cell %d: popcount %v, row walk %v", vars, bounds, i, fast.P[i], ref.P[i])
				}
			}
		}
	}
}
