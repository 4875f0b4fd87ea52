package dataset

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
)

// FuzzReadCSV hammers the CSV decoder behind privbayesd's POST /fit
// uploads and the CLI: any byte stream must either fail with an error
// or decode into a dataset whose every cell is a valid code for its
// attribute — and must never panic.
func FuzzReadCSV(f *testing.F) {
	// Seed corpus: a valid document and crafted corruptions — wrong
	// header, ragged rows, unknown labels, non-finite and overflowing
	// floats, quoting damage, embedded NULs and BOM.
	f.Add("color,age\nred,10\nblue,55.5\ngreen,79\n")
	f.Add("color,age\nred,10\n")
	f.Add("age,color\n10,red\n")
	f.Add("color\nred\n")
	f.Add("color,age\nred\n")
	f.Add("color,age\nred,10,extra\n")
	f.Add("color,age\nmauve,10\n")
	f.Add("color,age\nred,NaN\n")
	f.Add("color,age\nred,+Inf\n")
	f.Add("color,age\nred,-inf\n")
	f.Add("color,age\nred,1e999\n")
	f.Add("color,age\nred,\n")
	f.Add("color,age\n\"red,10\n")
	f.Add("color,age\r\nred,10\r\n")
	f.Add("\xef\xbb\xbfcolor,age\nred,10\n")
	f.Add("color,age\nred,10\x00\n")
	f.Add("")
	f.Add("\n\n\n")

	attrs := []Attribute{
		NewCategorical("color", []string{"red", "green", "blue"}),
		NewContinuous("age", 0, 80, 8),
	}

	f.Fuzz(func(t *testing.T, s string) {
		ds, err := ReadCSV(strings.NewReader(s), attrs)
		if err != nil {
			return
		}
		// ReadCSV drains the chunk loop ScanCSV yields from, so every
		// document ReadCSV accepts must drain clean from ScanCSV's
		// 3-row chunks to the same dataset, cell for cell.
		src := &ChunkSource{Attrs: attrs, ChunkRows: 3, Open: func() (Scanner, error) {
			return ScanCSV(strings.NewReader(s), attrs, 3)
		}}
		drained, err := Drain(context.Background(), src)
		if err != nil {
			t.Fatalf("ReadCSV accepted but draining ScanCSV failed: %v", err)
		}
		if drained.N() != ds.N() {
			t.Fatalf("drain decoded %d rows, ReadCSV %d", drained.N(), ds.N())
		}
		for r := 0; r < ds.N(); r++ {
			for c := 0; c < ds.D(); c++ {
				if got, want := drained.Value(r, c), ds.Value(r, c); got != want {
					t.Fatalf("row %d col %d: drained code %d, ReadCSV %d", r, c, got, want)
				}
			}
		}
		// Accepted datasets must be fully in-range and re-encodable.
		for r := 0; r < ds.N(); r++ {
			for c := 0; c < ds.D(); c++ {
				if v := ds.Value(r, c); v < 0 || v >= ds.Attr(c).Size() {
					t.Fatalf("row %d col %d: code %d outside domain [0, %d)", r, c, v, ds.Attr(c).Size())
				}
			}
		}
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted dataset fails to re-serialize: %v", err)
		}
		// A re-read of our own output must succeed: the writer emits
		// labels/bin centers that the reader defines as valid.
		if _, err := ReadCSV(&buf, attrs); err != nil {
			t.Fatalf("round-trip rejected: %v", err)
		}
	})
}

// FuzzScanJSONL hammers the JSONL row decoder behind the curator's
// append path: any byte stream must either fail with an error or
// decode into chunks whose every cell is a valid code for its
// attribute — and must never panic.
func FuzzScanJSONL(f *testing.F) {
	// Seed corpus: valid rows plus crafted corruptions — reordered and
	// missing fields, wrong types, unknown labels, non-finite numbers,
	// duplicate keys, nesting, blank lines, truncated JSON.
	f.Add("{\"color\":\"red\",\"age\":10,\"flag\":\"no\"}\n")
	f.Add("{\"flag\":\"yes\",\"age\":55.5,\"color\":\"blue\"}\n{\"color\":\"green\",\"age\":79,\"flag\":\"no\"}\n")
	f.Add("{\"color\":\"red\",\"age\":10}\n")
	f.Add("{\"color\":\"red\",\"age\":10,\"flag\":\"no\",\"extra\":1}\n")
	f.Add("{\"color\":\"mauve\",\"age\":10,\"flag\":\"no\"}\n")
	f.Add("{\"color\":1,\"age\":10,\"flag\":\"no\"}\n")
	f.Add("{\"color\":\"red\",\"age\":\"ten\",\"flag\":\"no\"}\n")
	f.Add("{\"color\":\"red\",\"age\":1e999,\"flag\":\"no\"}\n")
	f.Add("{\"color\":\"red\",\"age\":-1000,\"flag\":\"no\"}\n")
	f.Add("{\"color\":\"red\",\"color\":\"blue\",\"age\":1,\"flag\":\"no\"}\n")
	f.Add("{\"color\":{\"x\":1},\"age\":1,\"flag\":\"no\"}\n")
	f.Add("{\"color\":null,\"age\":1,\"flag\":\"no\"}\n")
	f.Add("{\n")
	f.Add("[]\n")
	f.Add("\n\n\n")
	f.Add("")
	f.Add("{\"color\":\"red\",\"age\":10,\"flag\":\"no\"}")

	attrs := []Attribute{
		NewCategorical("color", []string{"red", "green", "blue"}),
		NewContinuous("age", 0, 80, 8),
		NewCategorical("flag", []string{"no", "yes"}),
	}

	f.Fuzz(func(t *testing.T, s string) {
		sc := ScanJSONL(strings.NewReader(s), attrs, 4)
		defer sc.Close()
		for {
			chunk, err := sc.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				// Errors must be sticky: a failed scanner stays failed.
				if _, err2 := sc.Next(); err2 == nil || err2 == io.EOF {
					t.Fatalf("error %v not sticky (second Next: %v)", err, err2)
				}
				return
			}
			// Accepted rows must be fully in-domain.
			for r := 0; r < chunk.N(); r++ {
				for c := 0; c < chunk.D(); c++ {
					if v := chunk.Value(r, c); v < 0 || v >= chunk.Attr(c).Size() {
						t.Fatalf("row %d col %d: code %d outside domain [0, %d)", r, c, v, chunk.Attr(c).Size())
					}
				}
			}
		}
	})
}

// FuzzRowWriterRoundTrip checks that every schema SchemaFromSpecs
// accepts reads back as RowWriter writes it: fuzzed names, labels and
// continuous ranges, and fuzzed codes written in both formats, must
// come back from ReadCSV and ReadJSONL as the same codes.
func FuzzRowWriterRoundTrip(f *testing.F) {
	f.Add("color", "red", "", "age", 0.0, 80.0, uint16(8), false, []byte{0, 1, 0, 2, 1, 7})
	f.Add("c", "", "x", "v", 0.0, 1.0, uint16(1), true, []byte{0, 0, 0, 1, 0, 0})
	f.Add("q,\"", "a,b", `say "hi"`, " lead", -3.5, 1e6, uint16(300), false, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add("c", `\.`, "<&>", "héllo", -1e300, 1e300, uint16(65535), false, []byte{0xff, 0xff, 0, 0})
	f.Add("c", "a\r\nb", "\n", "v", 1e15, 1e15+1, uint16(64), false, []byte{9, 9})
	f.Add("c", "\r", "\xff", "v", -1e308, 1e308, uint16(2), false, []byte{1, 1})

	f.Fuzz(func(t *testing.T, name, label0, label1, contName string, lo, hi float64, bins uint16, oneColumn bool, raw []byte) {
		specs := []AttrSpec{{Name: name, Kind: "categorical", Labels: []string{label0, label1}}}
		if !oneColumn {
			specs = append(specs, AttrSpec{Name: contName, Kind: "continuous", Min: lo, Max: hi, Bins: int(bins)})
		}
		attrs, err := SchemaFromSpecs(specs)
		if err != nil {
			return
		}
		d := New(attrs)
		rec := make([]uint16, len(attrs))
		for len(raw) >= 2*len(attrs) && d.N() < 64 {
			for c := range rec {
				rec[c] = uint16((int(raw[0])<<8 | int(raw[1])) % attrs[c].Size())
				raw = raw[2:]
			}
			d.Append(rec)
		}
		assertReadsBack(t, d)
	})
}
