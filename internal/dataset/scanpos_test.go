package dataset

import (
	"io"
	"strings"
	"testing"
)

// Error-position tests: every decoder must report the expected 1-based
// row/column position and message for malformed input, at every chunk
// size — the positions are part of the user-facing contract and drift
// easily once chunked columnar fill owns the decode loop. ReadCSV, the
// same chunk loop drained into one dataset, is pinned to the same
// messages as ScanCSV.

// scanAllErr drains a scanner and returns the first non-EOF error (nil
// when the input scans clean).
func scanAllErr(sc Scanner) error {
	defer sc.Close()
	for {
		_, err := sc.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func TestScanCSVErrorPositionsMatchReadCSV(t *testing.T) {
	attrs := []Attribute{
		NewCategorical("color", []string{"red", "green"}),
		NewContinuous("weight", 0, 1, 4),
		NewCategorical("flag", []string{"yes", "no"}),
	}
	header := "color,weight,flag\n"
	good := "red,0.5,yes\n"

	cases := []struct {
		name  string
		input string
		want  string
	}{
		{"unknown label row 1", header + "blue,0.5,yes\n",
			`dataset: row 1, column 1 (color): unknown label "blue"`},
		{"unknown label row 3 col 3", header + good + good + "red,0.5,maybe\n",
			`dataset: row 3, column 3 (flag): unknown label "maybe"`},
		{"bad float row 2 col 2", header + good + "green,abc,no\n",
			`dataset: row 2, column 2 (weight): strconv.ParseFloat: parsing "abc": invalid syntax`},
		{"non-finite row 4 col 2", header + good + good + good + "red,+Inf,no\n",
			`dataset: row 4, column 2 (weight): non-finite value "+Inf"`},
		{"ragged row 2", header + good + "red,0.5\n",
			"dataset: row 2: record on line 3: wrong number of fields"},
		{"bare quote row 3", header + good + good + "red,\"0.5,yes\n",
			`dataset: row 3: parse error on line 4, column 14: extraneous or missing " in quoted-field`},
		// Malformed cells landing just past a chunk boundary: with
		// chunkRows 2 the bad cell is the first row of chunk 2; with 3
		// it is mid-chunk.
		{"unknown label row 5", header + strings.Repeat(good, 4) + "red,0.5,nope\n",
			`dataset: row 5, column 3 (flag): unknown label "nope"`},
		{"bad float row 7", header + strings.Repeat(good, 6) + "red,NaN,yes\n",
			`dataset: row 7, column 2 (weight): non-finite value "NaN"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tc.input), attrs); err == nil || err.Error() != tc.want {
				t.Errorf("ReadCSV: %v, want %s", err, tc.want)
			}
			for _, chunkRows := range []int{1, 2, 3, 5, DefaultChunkRows} {
				sc, err := ScanCSV(strings.NewReader(tc.input), attrs, chunkRows)
				if err != nil {
					t.Fatalf("chunkRows %d: header: %v", chunkRows, err)
				}
				if err := scanAllErr(sc); err == nil || err.Error() != tc.want {
					t.Errorf("chunkRows %d: %v, want %s", chunkRows, err, tc.want)
				}
			}
		})
	}
}

func TestScanJSONLErrorPositionsStableAcrossChunkSizes(t *testing.T) {
	attrs := []Attribute{
		NewCategorical("color", []string{"red", "green"}),
		NewCategorical("flag", []string{"yes", "no"}),
	}
	good := `{"color":"red","flag":"yes"}` + "\n"

	cases := []struct {
		name    string
		input   string
		wantSub string
	}{
		{"unknown label row 1", `{"color":"blue","flag":"yes"}` + "\n",
			`jsonl row 1, field "color": unknown label "blue"`},
		{"missing field row 3", good + good + `{"color":"red"}` + "\n",
			"jsonl row 3: 1 fields, schema has 2"},
		{"bad json row 2", good + "{not json}\n",
			"jsonl row 2:"},
		// Blank lines don't advance the reported row number.
		{"blanks before bad row 2", good + "\n\n" + `{"color":"red","flag":"maybe"}` + "\n",
			`jsonl row 2, field "flag": unknown label "maybe"`},
		{"bad row 5 across chunks", strings.Repeat(good, 4) + `{"flag":"yes","color":"nope"}` + "\n",
			`jsonl row 5, field "color": unknown label "nope"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first string
			for _, chunkRows := range []int{1, 2, 3, DefaultChunkRows} {
				err := scanAllErr(ScanJSONL(strings.NewReader(tc.input), attrs, chunkRows))
				if err == nil {
					t.Fatalf("chunkRows %d: scanner accepted malformed input", chunkRows)
				}
				if !strings.Contains(err.Error(), tc.wantSub) {
					t.Errorf("chunkRows %d: error %q does not contain %q", chunkRows, err, tc.wantSub)
				}
				if first == "" {
					first = err.Error()
				} else if err.Error() != first {
					t.Errorf("chunkRows %d: error %q differs from chunkRows 1's %q", chunkRows, err, first)
				}
			}
		})
	}
}
