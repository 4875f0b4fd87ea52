package dataset

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadCSVErrorsReportRowAndColumn(t *testing.T) {
	attrs := []Attribute{
		NewCategorical("color", []string{"red", "green"}),
		NewContinuous("age", 0, 100, 4),
	}
	cases := []struct {
		name string
		in   string
		want []string // substrings of the error
	}{
		{
			"unknown label",
			"color,age\nred,10\nblue,20\n",
			[]string{"row 2", "column 1", "color", `"blue"`},
		},
		{
			"bad float",
			"color,age\nred,ten\n",
			[]string{"row 1", "column 2", "age"},
		},
		{
			"non-finite float",
			"color,age\nred,NaN\n",
			[]string{"row 1", "column 2", "non-finite"},
		},
		{
			"ragged row",
			"color,age\nred,10\ngreen\n",
			[]string{"row 2"},
		},
		{
			"wrong header name",
			"color,height\nred,10\n",
			[]string{"column 2", `"height"`, `"age"`},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(tc.in), attrs)
			if err == nil {
				t.Fatal("want error")
			}
			for _, sub := range tc.want {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("error %q missing %q", err, sub)
				}
			}
		})
	}
}

func TestReadCSVStreamsLargeInput(t *testing.T) {
	// Build a biggish CSV incrementally and check the round trip; the
	// reader must cope row-by-row (ReuseRecord) without schema drift.
	attrs := []Attribute{
		NewCategorical("flag", []string{"no", "yes"}),
		NewContinuous("x", 0, 1, 8),
	}
	var buf bytes.Buffer
	buf.WriteString("flag,x\n")
	for i := 0; i < 5000; i++ {
		if i%3 == 0 {
			buf.WriteString("yes,0.9\n")
		} else {
			buf.WriteString("no,0.1\n")
		}
	}
	d, err := ReadCSV(&buf, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 5000 {
		t.Fatalf("read %d rows, want 5000", d.N())
	}
	yes := 0
	for r := 0; r < d.N(); r++ {
		if d.Value(r, 0) == 1 {
			yes++
		}
	}
	if yes != 1667 {
		t.Errorf("yes count = %d, want 1667", yes)
	}
}

func TestWriteCSVRowsChunksMatchWholeFile(t *testing.T) {
	attrs := []Attribute{
		NewCategorical("c", []string{"a", "b", "z"}),
		NewContinuous("v", 0, 10, 4),
	}
	d := New(attrs)
	for i := 0; i < 10; i++ {
		d.Append([]uint16{uint16(i % 3), uint16(i % 4)})
	}

	var whole bytes.Buffer
	if err := d.WriteCSV(&whole); err != nil {
		t.Fatal(err)
	}

	// Rows written in uneven chunks through one RowWriter must
	// byte-match WriteCSV — the contract the streaming synthesis
	// endpoint relies on.
	var chunked bytes.Buffer
	rw, err := NewRowWriter(&chunked, attrs, FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{0, 3}, {3, 4}, {4, 10}} {
		if err := rw.WriteRows(d, r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	if whole.String() != chunked.String() {
		t.Errorf("chunked output differs:\nwhole:\n%schunked:\n%s", whole.String(), chunked.String())
	}

	if err := rw.WriteRows(d, 5, 99); err == nil {
		t.Error("out-of-range row range must error")
	}
}
