package dataset

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strconv"
	"testing"
)

// writeSizes records the largest single write it receives.
type writeSizes struct {
	bytes.Buffer
	max, calls int
}

func (w *writeSizes) Write(p []byte) (int, error) {
	w.max = max(w.max, len(p))
	w.calls++
	return w.Buffer.Write(p)
}

// TestRowWriterMatchesStandardEncoders pins the writer's bytes on
// labels that need quoting or escaping: CSV must equal
// encoding/csv.Writer.WriteAll of the same cells, and JSONL must equal
// json.Marshal of every key and value, joined in schema order. The
// output spans several 64 KiB writes, none larger, and is written in
// two uneven WriteRows calls.
func TestRowWriterMatchesStandardEncoders(t *testing.T) {
	attrs := []Attribute{
		NewCategorical(`label, "quoted"`, []string{"a,b", `say "hi"`, " lead", `\.`, "héllo wörld", "<&>", "plain"}),
		NewContinuous("age", 0, 100, 8),
		NewCategorical("flag", []string{"no", "yes"}),
	}
	d := New(attrs)
	for i := 0; i < 6000; i++ {
		d.Append([]uint16{uint16(i % 7), uint16(i % 8), uint16(i / 7 % 2)})
	}

	records := [][]string{{attrs[0].Name, attrs[1].Name, attrs[2].Name}}
	var wantJSONL []byte
	for r := 0; r < d.N(); r++ {
		var rec []string
		for c := range attrs {
			a := &attrs[c]
			code := d.Value(r, c)
			key, _ := json.Marshal(a.Name)
			var value []byte
			if a.Kind == Continuous {
				rec = append(rec, strconv.FormatFloat(a.BinCenter(code), 'g', -1, 64))
				value, _ = json.Marshal(a.BinCenter(code))
			} else {
				rec = append(rec, a.Labels[code])
				value, _ = json.Marshal(a.Labels[code])
			}
			sep := byte(',')
			if c == 0 {
				sep = '{'
			}
			wantJSONL = append(append(append(append(wantJSONL, sep), key...), ':'), value...)
		}
		wantJSONL = append(wantJSONL, "}\n"...)
		records = append(records, rec)
	}
	var wantCSV bytes.Buffer
	if err := csv.NewWriter(&wantCSV).WriteAll(records); err != nil {
		t.Fatal(err)
	}

	for _, f := range []Format{FormatCSV, FormatJSONL} {
		var got writeSizes
		rw, err := NewRowWriter(&got, attrs, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int{{0, 1234}, {1234, d.N()}} {
			if err := rw.WriteRows(d, r[0], r[1]); err != nil {
				t.Fatal(err)
			}
		}
		want := wantCSV.Bytes()
		if f == FormatJSONL {
			want = wantJSONL
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%v: output differs from the standard encoders (%d bytes, want %d)", f, got.Len(), len(want))
		}
		if got.max > 64<<10 || got.calls < 3 {
			t.Errorf("%v: %d writes, largest %d bytes; want several, none above 64 KiB", f, got.calls, got.max)
		}
	}
}

// TestRowWriterEmptyCSVFieldReadsBack: a one-column CSV row holding an
// empty label is written as "", not as a blank line that readers skip.
func TestRowWriterEmptyCSVFieldReadsBack(t *testing.T) {
	attrs := []Attribute{NewCategorical("c", []string{"", "x"})}
	d := New(attrs)
	for _, v := range []uint16{0, 1, 0} {
		d.Append([]uint16{v})
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "c\n\"\"\nx\n\"\"\n"; buf.String() != want {
		t.Errorf("wrote %q, want %q", buf.String(), want)
	}
	back, err := ReadCSV(&buf, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 3 || back.Value(0, 0) != 0 || back.Value(1, 0) != 1 || back.Value(2, 0) != 0 {
		t.Errorf("read back %d rows, want the 3 written", back.N())
	}
}

// TestSchemaFromSpecsRefusesCellsThatDoNotReadBack: every refused
// schema holds a cell RowWriter writes but ReadCSV or ReadJSONL reads
// back differently or not at all.
func TestSchemaFromSpecsRefusesCellsThatDoNotReadBack(t *testing.T) {
	cat := func(name string, labels ...string) AttrSpec {
		return AttrSpec{Name: name, Kind: "categorical", Labels: labels}
	}
	cont := func(lo, hi float64, bins int) AttrSpec {
		return AttrSpec{Name: "v", Kind: "continuous", Min: lo, Max: hi, Bins: bins}
	}
	cases := map[string]AttrSpec{
		"CRLF label":          cat("c", "a\r\nb", "x"),
		"CRLF name":           cat("a\r\nb", "x"),
		"invalid UTF-8 label": cat("c", "\xff", "x"),
		"invalid UTF-8 name":  cat("c\xfe", "x"),
		"bins finer than ulp": cont(1e15, 1e15+1, 64),
		"width overflows":     cont(-1e308, 1e308, 4),
		"center overflows":    cont(-1e308, 1e308, 1),
	}
	for name, spec := range cases {
		if _, err := SchemaFromSpecs([]AttrSpec{spec}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A lone CR or LF, a quote and the empty label do read back, and so
	// does a wide range in the most bins.
	attrs, err := SchemaFromSpecs([]AttrSpec{cat("c", "", "\r", "\n", `"`), cont(-1e300, 1e300, 1<<16)})
	if err != nil {
		t.Fatal(err)
	}
	d := New(attrs)
	for i := 0; i < 1<<16; i++ {
		d.Append([]uint16{uint16(i % 4), uint16(i)})
	}
	assertReadsBack(t, d)
}

// assertReadsBack writes d in both formats and checks ReadCSV and
// ReadJSONL return its codes.
func assertReadsBack(t *testing.T, d *Dataset) {
	t.Helper()
	for _, f := range []Format{FormatCSV, FormatJSONL} {
		var buf bytes.Buffer
		rw, err := NewRowWriter(&buf, d.Attrs(), f)
		if err != nil {
			t.Fatal(err)
		}
		if err := rw.WriteRows(d, 0, d.N()); err != nil {
			t.Fatal(err)
		}
		var back *Dataset
		if f == FormatCSV {
			back, err = ReadCSV(&buf, d.Attrs())
		} else {
			back, err = ReadJSONL(&buf, d.Attrs(), 0)
		}
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if back.N() != d.N() {
			t.Fatalf("%v: read back %d rows, wrote %d", f, back.N(), d.N())
		}
		for r := 0; r < d.N(); r++ {
			for c := 0; c < d.D(); c++ {
				if back.Value(r, c) != d.Value(r, c) {
					a := d.Attr(c)
					t.Fatalf("%v: row %d %s: code %d reads back as %d (text %q)", f, r, a.Name, d.Value(r, c), back.Value(r, c), a.Text(d.Value(r, c)))
				}
			}
		}
	}
}
