package dataset

import (
	"bytes"
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
		// document ReadCSV accepts must scan clean to as many rows.
		sc, err := ScanCSV(strings.NewReader(s), attrs, 3)
		if err != nil {
			t.Fatalf("ReadCSV accepted but ScanCSV rejected: %v", err)
		}
		total := 0
		for {
			chunk, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("ReadCSV accepted but chunk scan failed: %v", err)
			}
			total += chunk.N()
		}
		sc.Close()
		if total != ds.N() {
			t.Fatalf("scanner decoded %d rows, ReadCSV %d", total, ds.N())
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
