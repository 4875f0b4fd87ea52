package dataset

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema() []Attribute {
	return []Attribute{
		NewCategorical("color", []string{"red", "green", "blue"}),
		NewContinuous("age", 0, 100, 16),
		NewCategorical("flag", []string{"no", "yes"}),
	}
}

func fill(t *testing.T, d *Dataset, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rec := make([]uint16, d.D())
	for i := 0; i < n; i++ {
		for c := 0; c < d.D(); c++ {
			rec[c] = uint16(rng.Intn(d.Attr(c).Size()))
		}
		d.Append(rec)
	}
}

func TestAppendAndAccess(t *testing.T) {
	d := New(testSchema())
	d.Append([]uint16{2, 5, 1})
	d.Append([]uint16{0, 15, 0})
	if d.N() != 2 || d.D() != 3 {
		t.Fatalf("got N=%d D=%d, want 2, 3", d.N(), d.D())
	}
	if d.Value(0, 0) != 2 || d.Value(1, 1) != 15 {
		t.Errorf("unexpected values: %d, %d", d.Value(0, 0), d.Value(1, 1))
	}
	rec := d.Record(1, nil)
	if rec[0] != 0 || rec[1] != 15 || rec[2] != 0 {
		t.Errorf("Record(1) = %v", rec)
	}
}

func TestAppendRejectsOutOfRangeCode(t *testing.T) {
	d := New(testSchema())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range code")
		}
	}()
	d.Append([]uint16{3, 0, 0}) // color has only 3 codes
}

func TestAppendRejectsWrongArity(t *testing.T) {
	d := New(testSchema())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong record length")
		}
	}()
	d.Append([]uint16{0, 0})
}

func TestCloneIsDeep(t *testing.T) {
	d := New(testSchema())
	fill(t, d, 10, 1)
	c := d.Clone()
	c.Append([]uint16{0, 0, 0})
	if d.N() == c.N() {
		t.Error("clone shares row count with original")
	}
	if d.Value(0, 0) != c.Value(0, 0) {
		t.Error("clone lost data")
	}
}

// TestSnapshotOwnsPackedPlanes: a snapshot keeps its rows while the
// dataset grows past them. It shares byte- and short-coded storage and
// owns its bit-packed planes, whose last word holds rows on both sides
// of the snapshot and which an append ORs into.
func TestSnapshotOwnsPackedPlanes(t *testing.T) {
	attrs := []Attribute{
		NewCategorical("bit", []string{"0", "1"}),
		NewCategorical("two", []string{"a", "b", "c"}),
		NewContinuous("byte", 0, 1, 16),
		NewContinuous("short", 0, 1, 300),
	}
	d := New(attrs)
	fill(t, d, 100, 3)
	want := d.Clone()
	s := d.Snapshot(100)
	for c := 0; c < 2; c++ {
		if &s.cols[c].planes[0][0] == &d.cols[c].planes[0][0] {
			t.Errorf("column %d: snapshot shares its bit planes", c)
		}
	}
	if &s.cols[2].b8[0] != &d.cols[2].b8[0] || &s.cols[3].b16[0] != &d.cols[3].b16[0] {
		t.Error("snapshot copied a byte- or short-coded column")
	}
	for i := 0; i < 50; i++ {
		d.Append([]uint16{1, 2, 15, 299})
	}
	if s.N() != 100 {
		t.Fatalf("snapshot has %d rows, want 100", s.N())
	}
	for r := 0; r < 100; r++ {
		for c := range attrs {
			if s.Value(r, c) != want.Value(r, c) {
				t.Fatalf("row %d col %d: snapshot %d, want %d", r, c, s.Value(r, c), want.Value(r, c))
			}
		}
	}
	// 100 rows: 13 bytes of one bit, 25 of two bits, 100 bytes, 200.
	if got := s.PackedBytes(); got != 338 {
		t.Errorf("PackedBytes = %d, want 338", got)
	}
}

func TestSubsetPreservesOrder(t *testing.T) {
	d := New(testSchema())
	fill(t, d, 20, 2)
	s := d.Subset([]int{5, 0, 19})
	if s.N() != 3 {
		t.Fatalf("subset N = %d", s.N())
	}
	for c := 0; c < d.D(); c++ {
		if s.Value(0, c) != d.Value(5, c) || s.Value(2, c) != d.Value(19, c) {
			t.Fatalf("subset column %d mismatch", c)
		}
	}
}

func TestSplitPartition(t *testing.T) {
	d := New(testSchema())
	fill(t, d, 100, 3)
	train, test := d.Split(0.8, rand.New(rand.NewSource(4)))
	if train.N() != 80 || test.N() != 20 {
		t.Fatalf("split sizes: %d/%d", train.N(), test.N())
	}
}

func TestSampleClamps(t *testing.T) {
	d := New(testSchema())
	fill(t, d, 10, 5)
	s := d.Sample(50, rand.New(rand.NewSource(6)))
	if s.N() != 10 {
		t.Errorf("oversized sample should clamp to N, got %d", s.N())
	}
	s2 := d.Sample(4, rand.New(rand.NewSource(7)))
	if s2.N() != 4 {
		t.Errorf("sample size = %d, want 4", s2.N())
	}
}

func TestAttrIndex(t *testing.T) {
	d := New(testSchema())
	if d.AttrIndex("age") != 1 {
		t.Errorf("AttrIndex(age) = %d", d.AttrIndex("age"))
	}
	if d.AttrIndex("missing") != -1 {
		t.Error("missing attribute should return -1")
	}
}

func TestTotalDomainLog2(t *testing.T) {
	d := New(testSchema()) // 3 * 16 * 2 = 96
	got := d.TotalDomainLog2()
	want := 6.584962500721156 // log2(96)
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("TotalDomainLog2 = %v, want %v", got, want)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := New(testSchema())
	fill(t, d, 25, 8)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != d.N() {
		t.Fatalf("round trip N = %d, want %d", back.N(), d.N())
	}
	for r := 0; r < d.N(); r++ {
		for c := 0; c < d.D(); c++ {
			if back.Value(r, c) != d.Value(r, c) {
				t.Fatalf("cell (%d,%d): got %d want %d", r, c, back.Value(r, c), d.Value(r, c))
			}
		}
	}
}

func TestReadCSVRejectsBadHeader(t *testing.T) {
	_, err := ReadCSV(strings.NewReader("a,b\n"), testSchema())
	if err == nil {
		t.Fatal("expected error for wrong column count")
	}
	_, err = ReadCSV(strings.NewReader("color,wrong,flag\n"), testSchema())
	if err == nil {
		t.Fatal("expected error for wrong column name")
	}
}

func TestReadCSVRejectsUnknownLabel(t *testing.T) {
	in := "color,age,flag\npurple,10,no\n"
	if _, err := ReadCSV(strings.NewReader(in), testSchema()); err == nil {
		t.Fatal("expected error for unknown label")
	}
}

func TestContinuousBinning(t *testing.T) {
	a := NewContinuous("age", 0, 80, 8)
	cases := []struct {
		v    float64
		want int
	}{
		{-5, 0}, {0, 0}, {5, 0}, {10.001, 1}, {79.9, 7}, {80, 7}, {1000, 7},
	}
	for _, c := range cases {
		if got := a.Bin(c.v); got != c.want {
			t.Errorf("Bin(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBinCenterInvertsBin(t *testing.T) {
	a := NewContinuous("x", -10, 30, 16)
	f := func(raw float64) bool {
		v := -10 + 40*clamp01(raw)
		code := a.Bin(v)
		center := a.BinCenter(code)
		return a.Bin(center) == code
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		x = -x
	}
	x = x - float64(int(x))
	if x < 0 {
		x += 1
	}
	return x
}

func TestBitsCoverDomain(t *testing.T) {
	for size := 2; size <= 70; size++ {
		labels := make([]string, size)
		for i := range labels {
			labels[i] = strings.Repeat("x", i+1)
		}
		a := NewCategorical("a", labels)
		if 1<<a.Bits() < size {
			t.Errorf("size %d: 2^%d does not cover domain", size, a.Bits())
		}
		if a.Bits() > 1 && 1<<(a.Bits()-1) >= size {
			t.Errorf("size %d: bits %d not minimal", size, a.Bits())
		}
	}
}

func TestContinuousGetsBinaryHierarchy(t *testing.T) {
	a := NewContinuous("age", 0, 80, 16)
	if a.Hierarchy == nil {
		t.Fatal("power-of-two continuous attribute should get a hierarchy")
	}
	if a.Height() != 4 {
		t.Errorf("height = %d, want 4 (16, 8, 4, 2)", a.Height())
	}
	if a.SizeAt(3) != 2 {
		t.Errorf("SizeAt(3) = %d, want 2", a.SizeAt(3))
	}
	// Non-power-of-two bins: no hierarchy.
	b := NewContinuous("x", 0, 1, 10)
	if b.Hierarchy != nil {
		t.Error("10-bin attribute should have no automatic hierarchy")
	}
}

func TestLabelAndCode(t *testing.T) {
	a := NewCategorical("c", []string{"x", "y"})
	if a.Code("y") != 1 || a.Code("z") != -1 {
		t.Error("Code lookup wrong")
	}
	if a.Label(0) != "x" || a.Label(9) != "9" {
		t.Error("Label lookup wrong")
	}
}
