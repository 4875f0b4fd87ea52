package dataset

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func scanTestSchema() []Attribute {
	return []Attribute{
		NewCategorical("color", []string{"red", "green", "blue"}),
		NewContinuous("age", 0, 80, 8),
		NewCategorical("flag", []string{"no", "yes"}),
	}
}

func scanTestDataset(t *testing.T, n int) *Dataset {
	t.Helper()
	attrs := scanTestSchema()
	d := NewWithCapacity(attrs, n)
	rng := rand.New(rand.NewSource(7))
	rec := make([]uint16, len(attrs))
	for i := 0; i < n; i++ {
		for c := range attrs {
			rec[c] = uint16(rng.Intn(attrs[c].Size()))
		}
		d.Append(rec)
	}
	return d
}

// drain collects every chunk of a scanner into one dataset.
func drain(t *testing.T, sc Scanner) *Dataset {
	t.Helper()
	var out *Dataset
	rec := []uint16(nil)
	for {
		chunk, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if out == nil {
			out = New(chunk.Attrs())
		}
		for r := 0; r < chunk.N(); r++ {
			rec = chunk.Record(r, rec)
			out.Append(rec)
		}
	}
	if err := sc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if out == nil {
		out = New(scanTestSchema())
	}
	return out
}

func sameRows(t *testing.T, a, b *Dataset) {
	t.Helper()
	if a.N() != b.N() || a.D() != b.D() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", a.N(), a.D(), b.N(), b.D())
	}
	for r := 0; r < a.N(); r++ {
		for c := 0; c < a.D(); c++ {
			if a.Value(r, c) != b.Value(r, c) {
				t.Fatalf("row %d col %d: %d vs %d", r, c, a.Value(r, c), b.Value(r, c))
			}
		}
	}
}

func TestScanCSVMatchesReadCSV(t *testing.T) {
	want := scanTestDataset(t, 1000)
	var buf bytes.Buffer
	if err := want.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.Bytes()
	for _, chunk := range []int{1, 7, 256, 1000, 5000} {
		sc, err := ScanCSV(bytes.NewReader(doc), want.Attrs(), chunk)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		sameRows(t, want, drain(t, sc))
	}
}

func TestScanCSVChunkShapes(t *testing.T) {
	want := scanTestDataset(t, 100)
	var buf bytes.Buffer
	if err := want.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := ScanCSV(bytes.NewReader(buf.Bytes()), want.Attrs(), 30)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	sizes := []int{}
	for {
		c, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, c.N())
	}
	wantSizes := []int{30, 30, 30, 10}
	if len(sizes) != len(wantSizes) {
		t.Fatalf("chunk sizes %v, want %v", sizes, wantSizes)
	}
	for i := range sizes {
		if sizes[i] != wantSizes[i] {
			t.Fatalf("chunk sizes %v, want %v", sizes, wantSizes)
		}
	}
	// EOF is sticky.
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("after EOF: %v", err)
	}
}

func TestScanCSVErrors(t *testing.T) {
	attrs := scanTestSchema()
	if _, err := ScanCSV(strings.NewReader("bogus,header,x\n"), attrs, 10); err == nil {
		t.Fatal("bad header accepted")
	}
	sc, err := ScanCSV(strings.NewReader("color,age,flag\nred,10,yes\nmauve,10,yes\n"), attrs, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.Next(); err == nil || !strings.Contains(err.Error(), "unknown label") {
		t.Fatalf("want unknown-label error, got %v", err)
	}
	// Errors are sticky.
	if _, err := sc.Next(); err == nil || err == io.EOF {
		t.Fatalf("error not sticky: %v", err)
	}
}

func TestScanJSONLRoundTrip(t *testing.T) {
	want := scanTestDataset(t, 500)
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf, want.Attrs())
	if err := jw.WriteRows(want, 0, want.N()); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 64, 500, 1 << 20} {
		got := drain(t, ScanJSONL(bytes.NewReader(buf.Bytes()), want.Attrs(), chunk))
		if got.N() != want.N() {
			t.Fatalf("chunk %d: %d rows, want %d", chunk, got.N(), want.N())
		}
		// Continuous codes survive a label round-trip because the writer
		// emits bin centers, which re-bin to the same code.
		sameRows(t, want, got)
	}
	// ReadJSONL drains the same chunk loop; its row cap admits exactly
	// maxRows rows.
	for _, maxRows := range []int{0, want.N()} {
		got, err := ReadJSONL(bytes.NewReader(buf.Bytes()), want.Attrs(), maxRows)
		if err != nil {
			t.Fatalf("ReadJSONL cap %d: %v", maxRows, err)
		}
		sameRows(t, want, got)
	}
	if _, err := ReadJSONL(bytes.NewReader(buf.Bytes()), want.Attrs(), want.N()-1); !errors.Is(err, ErrTooManyRows) {
		t.Fatalf("ReadJSONL past its cap: %v, want ErrTooManyRows", err)
	}
}

func TestScanJSONLFieldOrderAndBlanks(t *testing.T) {
	attrs := scanTestSchema()
	doc := "\n{\"flag\":\"yes\",\"age\":12.5,\"color\":\"blue\"}\n\n  \n{\"color\":\"red\",\"age\":0,\"flag\":\"no\"}\n"
	got := drain(t, ScanJSONL(strings.NewReader(doc), attrs, 10))
	if got.N() != 2 {
		t.Fatalf("got %d rows, want 2", got.N())
	}
	if got.Value(0, 0) != 2 || got.Value(0, 2) != 1 {
		t.Fatalf("row 0 decoded wrong: %v %v", got.Value(0, 0), got.Value(0, 2))
	}
}

func TestScanJSONLErrors(t *testing.T) {
	attrs := scanTestSchema()
	cases := map[string]string{
		"not json":      "{",
		"missing field": `{"color":"red","age":1}`,
		"extra field":   `{"color":"red","age":1,"flag":"no","zz":1}`,
		"bad label":     `{"color":"mauve","age":1,"flag":"no"}`,
		"bad number":    `{"color":"red","age":"x","flag":"no"}`,
		"bad type":      `{"color":1,"age":1,"flag":"no"}`,
	}
	for name, doc := range cases {
		sc := ScanJSONL(strings.NewReader(doc), attrs, 10)
		if _, err := sc.Next(); err == nil || err == io.EOF {
			t.Errorf("%s: accepted (%v)", name, err)
		}
		sc.Close()
	}
}

func TestChunkSourceFilesRescan(t *testing.T) {
	want := scanTestDataset(t, 300)
	dir := t.TempDir()

	csvPath := filepath.Join(dir, "rows.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jsonlPath := filepath.Join(dir, "rows.jsonl")
	g, err := os.Create(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	jw := NewJSONLWriter(g, want.Attrs())
	if err := jw.WriteRows(want, 0, want.N()); err != nil {
		t.Fatal(err)
	}
	g.Close()

	for _, src := range []*ChunkSource{
		CSVFile(csvPath, want.Attrs(), 64),
		JSONLFile(jsonlPath, want.Attrs(), 64),
	} {
		// Two scans over the same source must yield identical rows: the
		// re-scan contract of the out-of-core fit path.
		for pass := 0; pass < 2; pass++ {
			sc, err := src.Open()
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, want, drain(t, sc))
		}
	}

	missing := CSVFile(filepath.Join(dir, "nope.csv"), want.Attrs(), 64)
	if _, err := missing.Open(); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
}

func TestScanDataset(t *testing.T) {
	want := scanTestDataset(t, 257)
	sameRows(t, want, drain(t, ScanDataset(want, 64)))
	sc, err := DatasetSource(want, 64).Open()
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, want, drain(t, sc))
}

func TestNewVirtual(t *testing.T) {
	attrs := scanTestSchema()
	v := NewVirtual(attrs, 12345)
	if v.N() != 12345 || v.D() != 3 {
		t.Fatalf("virtual shape %dx%d", v.N(), v.D())
	}
	if v.Attr(1).Name != "age" {
		t.Fatalf("virtual schema lost: %q", v.Attr(1).Name)
	}
}

func TestSliceView(t *testing.T) {
	d := scanTestDataset(t, 50)
	s := d.Slice(10, 20)
	if s.N() != 10 {
		t.Fatalf("slice N = %d", s.N())
	}
	for r := 0; r < 10; r++ {
		for c := 0; c < d.D(); c++ {
			if s.Value(r, c) != d.Value(r+10, c) {
				t.Fatalf("slice row %d col %d mismatch", r, c)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Slice did not panic")
		}
	}()
	d.Slice(40, 60)
}
