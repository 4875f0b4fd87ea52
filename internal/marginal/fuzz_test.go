package marginal

import (
	"fmt"
	"math/rand"
	"testing"

	"privbayes/internal/dataset"
)

// FuzzColumnarCounts differentially fuzzes the counting engines: for
// random datasets (row counts straddling mask-word boundaries, arities
// spanning every packing width, taxonomies over the wider attributes)
// and random parent/child variable picks, the popcount kernel's counts
// must equal the legacy row-major walk's exactly — cell for cell,
// through MaterializeCounts and a MemorySource request — and so must
// every table of a random batch through CountBatch's walk, with the
// pass cap drawn small enough to split it. Wired into `make fuzz`.
func FuzzColumnarCounts(f *testing.F) {
	f.Add(int64(1), uint16(100), uint16(0x1234), uint8(2))
	f.Add(int64(2), uint16(64), uint16(0xffff), uint8(0))
	f.Add(int64(3), uint16(513), uint16(0x8001), uint8(5))
	f.Add(int64(4), uint16(1), uint16(0), uint8(7))
	// All-binary attributes (arityBits 0) picked 4-, 5- and 6-way: up
	// to five binary parents, the 64-cell joints the kernel still takes.
	f.Add(int64(5), uint16(300), uint16(0), uint8(3))
	f.Add(int64(6), uint16(777), uint16(0), uint8(4))
	f.Add(int64(7), uint16(1029), uint16(0), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, arityBits uint16, pick uint8) {
		n := int(nRaw) % 1500
		rng := rand.New(rand.NewSource(seed))

		// 5 attributes, arity 2–5 from two bits each: spans 1-bit,
		// 2-bit, and byte-coded (arity 5) columns.
		const d = 5
		attrs := make([]dataset.Attribute, d)
		for a := 0; a < d; a++ {
			arity := 2 + int(arityBits>>(2*a))&3
			labels := make([]string, arity)
			for i := range labels {
				labels[i] = fmt.Sprintf("v%d", i)
			}
			attrs[a] = dataset.NewCategorical(fmt.Sprintf("a%d", a), labels)
			if arity > 2 {
				attrs[a].Hierarchy = taxonomy(arity)
			}
		}
		ds := dataset.NewWithCapacity(attrs, n)
		rec := make([]uint16, d)
		for r := 0; r < n; r++ {
			for c := 0; c < d; c++ {
				rec[c] = uint16(rng.Intn(attrs[c].Size()))
			}
			ds.Append(rec)
		}

		// Random 1–6-way variable pick (repeats allowed).
		k := 1 + int(pick)%6
		vars := make([]Var, k)
		for i := range vars {
			vars[i] = Var{Attr: rng.Intn(d)}
		}

		fast := MaterializeCounts(ds, vars)
		var ref *Table
		withRowMajor(func() { ref = MaterializeCounts(ds, vars) })
		for i := range ref.P {
			if fast.P[i] != ref.P[i] {
				t.Fatalf("n=%d vars=%v cell %d: popcount %v, row-major %v",
					n, vars, i, fast.P[i], ref.P[i])
			}
		}

		parents, child := vars[:k-1], vars[k-1]
		fastJ := countTables(t, ds, parents, []Var{child}, 1)[0]
		var refJ *Table
		withRowMajor(func() {
			refJ = countTables(t, ds, parents, []Var{child}, 1)[0]
		})
		for i := range refJ.P {
			if fastJ.P[i] != refJ.P[i] {
				t.Fatalf("n=%d parents=%v child=%v cell %d: popcount %v, row-major %v",
					n, parents, child, i, fastJ.P[i], refJ.P[i])
			}
		}

		old := maxPassCells
		maxPassCells = 1 + int(pick)*4
		defer func() { maxPassCells = old }()
		checkBatch(t, ds, randomBatch(rng, attrs, 1+int(pick)%12), 1+int(arityBits)%3)
	})
}
