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
// byte-coded attribute the popcount kernel must refuse.
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
// identical tables with the popcount kernel on and off, over 1–3-way
// marginals spanning eligible and ineligible variable mixes.
func TestPopcountCountsMatchRowMajor(t *testing.T) {
	// 500 rows straddles several mask words plus a partial tail word.
	ds := mixedData(500, 11)
	varSets := [][]Var{
		{{Attr: 0}},
		{{Attr: 2}},
		{{Attr: 4}}, // wide: kernel refuses, still must agree
		{{Attr: 0}, {Attr: 1}},
		{{Attr: 1}, {Attr: 2}},
		{{Attr: 3}, {Attr: 2}},
		{{Attr: 0}, {Attr: 1}, {Attr: 2}},
		{{Attr: 2}, {Attr: 3}, {Attr: 0}},
		{{Attr: 0}, {Attr: 4}, {Attr: 1}},
		{{Attr: 3}, {Attr: 3}, {Attr: 3}}, // repeated var is legal
	}
	for _, vars := range varSets {
		fast := MaterializeCounts(ds, vars)
		var ref *Table
		withRowMajor(func() { ref = MaterializeCounts(ds, vars) })
		if len(fast.P) != len(ref.P) {
			t.Fatalf("%v: table sizes differ: %d vs %d", vars, len(fast.P), len(ref.P))
		}
		for i := range ref.P {
			if fast.P[i] != ref.P[i] {
				t.Fatalf("%v cell %d: popcount %v, row-major %v", vars, i, fast.P[i], ref.P[i])
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

// TestCountChildrenPopcountMatchesRowWalk checks the fused
// CountChildren pass splits children between the popcount kernel and
// the row walk without changing any table: mixed eligible / wide /
// generalized children against the same parent index.
func TestCountChildrenPopcountMatchesRowWalk(t *testing.T) {
	ds := hierData(700, 13)
	mixed := mixedData(700, 14)
	cases := []struct {
		ds       *dataset.Dataset
		parents  []Var
		children []Var
	}{
		{mixed, nil, []Var{{Attr: 0}, {Attr: 4}}},
		{mixed, []Var{{Attr: 0}}, []Var{{Attr: 1}, {Attr: 2}, {Attr: 4}}},
		{mixed, []Var{{Attr: 0}, {Attr: 2}}, []Var{{Attr: 1}, {Attr: 3}, {Attr: 4}}},
		{mixed, []Var{{Attr: 4}}, []Var{{Attr: 0}}}, // wide parent: whole set on row walk
		// hierData has a taxonomy: generalized parent and child are
		// ineligible and must agree through the row walk.
		{ds, []Var{{Attr: 0, Level: 1}}, []Var{{Attr: 1}}},
		{ds, []Var{{Attr: 1}}, []Var{{Attr: 0, Level: 1}, {Attr: 0}}},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 4} {
			fast := BuildParentIndex(tc.ds, tc.parents, par).CountChildren(tc.ds, tc.children, par)
			var ref []*Table
			withRowMajor(func() {
				ref = BuildParentIndex(tc.ds, tc.parents, par).CountChildren(tc.ds, tc.children, par)
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
// row loop — matches the row walk. This is the shape the out-of-core
// Accumulate path feeds the kernel.
func TestPopcountOnSlices(t *testing.T) {
	ds := mixedData(400, 16)
	vars := []Var{{Attr: 0}, {Attr: 2}}
	for _, bounds := range [][2]int{{0, 400}, {0, 64}, {64, 400}, {7, 133}, {129, 258}} {
		chunk := ds.Slice(bounds[0], bounds[1])
		fast := MaterializeCounts(chunk, vars)
		var ref *Table
		withRowMajor(func() { ref = MaterializeCounts(chunk, vars) })
		for i := range ref.P {
			if fast.P[i] != ref.P[i] {
				t.Fatalf("slice %v cell %d: popcount %v, row walk %v", bounds, i, fast.P[i], ref.P[i])
			}
		}
	}
}
