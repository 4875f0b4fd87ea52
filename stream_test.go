package privbayes

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

func fitStreamModel(t *testing.T) *Model {
	t.Helper()
	m, err := Fit(context.Background(), toyData(4000, 90), WithEpsilon(1), WithSeed(91))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSynthesizeStreamMatchesSampleP: the acceptance contract — for a
// fixed (model, n, seed) the iterator's rows are byte-identical to one
// monolithic SampleP call, at any parallelism, including n that is not
// a multiple of the stream chunk.
func TestSynthesizeStreamMatchesSampleP(t *testing.T) {
	m := fitStreamModel(t)
	for _, n := range []int{0, 1, 2047, 2048, 5000, 40_000} {
		const seed = 92
		want := m.SampleP(n, rand.New(rand.NewSource(seed)), 2)
		for _, par := range []int{0, 1, 3} {
			got := 0
			for row, err := range m.Synthesize(context.Background(), n, SynthSeed(seed), SynthParallelism(par)) {
				if err != nil {
					t.Fatalf("n=%d par=%d row %d: %v", n, par, got, err)
				}
				for c := range row {
					if int(row[c]) != want.Value(got, c) {
						t.Fatalf("n=%d par=%d: row %d col %d = %d, want %d",
							n, par, got, c, row[c], want.Value(got, c))
					}
				}
				got++
			}
			if got != n {
				t.Fatalf("n=%d par=%d: streamed %d rows", n, par, got)
			}
		}
	}
}

// TestSynthesizeStreamEarlyBreak: breaking the iterator early is clean
// — no error, no further rows, and the next stream starts fresh.
func TestSynthesizeStreamEarlyBreak(t *testing.T) {
	m := fitStreamModel(t)
	seen := 0
	for _, err := range m.Synthesize(context.Background(), 100_000, SynthSeed(1)) {
		if err != nil {
			t.Fatal(err)
		}
		seen++
		if seen == 10 {
			break
		}
	}
	if seen != 10 {
		t.Fatalf("consumed %d rows", seen)
	}
}

// TestSynthesizeToCSVMatchesWriteCSV: SynthesizeTo's CSV bytes equal
// Dataset.WriteCSV of the equivalent SampleP call, header included
// when no rows are asked for.
func TestSynthesizeToCSVMatchesWriteCSV(t *testing.T) {
	m := fitStreamModel(t)
	const seed = 93
	for _, n := range []int{20_000, 0} {
		var want bytes.Buffer
		if err := m.SampleP(n, rand.New(rand.NewSource(seed)), 2).WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := m.SynthesizeTo(context.Background(), &got, n, FormatCSV, SynthSeed(seed)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("n=%d: streamed CSV %q differs from materialized WriteCSV %q", n,
				got.Bytes()[:min(got.Len(), 64)], want.Bytes()[:min(want.Len(), 64)])
		}
	}
}

// TestSynthesizeToJSONL: every line is a JSON object keyed by
// attribute name, and the stream replays byte-identically per seed.
func TestSynthesizeToJSONL(t *testing.T) {
	m := fitStreamModel(t)
	var a, b bytes.Buffer
	if err := m.SynthesizeTo(context.Background(), &a, 500, FormatJSONL, SynthSeed(5)); err != nil {
		t.Fatal(err)
	}
	if err := m.SynthesizeTo(context.Background(), &b, 500, FormatJSONL, SynthSeed(5)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed must replay the stream byte for byte")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 500 {
		t.Fatalf("%d JSONL lines, want 500", len(lines))
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &obj); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	for _, key := range []string{"a", "b", "c"} {
		if _, ok := obj[key]; !ok {
			t.Errorf("line 0 missing attribute %q", key)
		}
	}
}

// TestAppendRowText decodes streamed rows exactly as CSV rendering
// does: every cell equals the matching cell of WriteCSV over the same
// rows.
func TestAppendRowText(t *testing.T) {
	m := fitStreamModel(t)
	const n = 300
	rows := NewDataset(m.Attrs)
	var text [][]string
	for row, err := range m.Synthesize(context.Background(), n, SynthSeed(6)) {
		if err != nil {
			t.Fatal(err)
		}
		rows.Append(row)
		text = append(text, m.AppendRowText(nil, row))
	}
	var buf bytes.Buffer
	if err := rows.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != n+1 || len(text) != n {
		t.Fatalf("%d CSV records and %d decoded rows, want %d and %d", len(want), len(text), n+1, n)
	}
	for r, cells := range text {
		if len(cells) != len(m.Attrs) {
			t.Fatalf("row %d: decoded %d cells, want %d", r, len(cells), len(m.Attrs))
		}
		for c, cell := range cells {
			if cell != want[r+1][c] {
				t.Fatalf("row %d col %d: AppendRowText %q, WriteCSV %q", r, c, cell, want[r+1][c])
			}
		}
	}
}

// TestSynthesizeNegativeRows surfaces an error through the iterator
// instead of panicking.
func TestSynthesizeNegativeRows(t *testing.T) {
	m := fitStreamModel(t)
	sawErr := false
	for _, err := range m.Synthesize(context.Background(), -1) {
		if err == nil {
			t.Fatal("yielded a row for n = -1")
		}
		sawErr = true
	}
	if !sawErr {
		t.Fatal("no error yielded for n = -1")
	}
	if err := m.SynthesizeTo(context.Background(), &bytes.Buffer{}, -1, FormatCSV); err == nil {
		t.Fatal("SynthesizeTo accepted n = -1")
	}
}
