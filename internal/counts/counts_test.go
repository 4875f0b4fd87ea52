package counts

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
)

func testSchema() []dataset.Attribute {
	return []dataset.Attribute{
		dataset.NewCategorical("a", []string{"x", "y", "z"}),
		dataset.NewCategorical("b", []string{"0", "1"}),
		dataset.NewContinuous("c", 0, 16, 4),
		dataset.NewCategorical("d", []string{"p", "q", "r", "s"}),
	}
}

func randomDataset(seed int64, n int, attrs []dataset.Attribute) *dataset.Dataset {
	ds := dataset.NewWithCapacity(attrs, n)
	rng := rand.New(rand.NewSource(seed))
	rec := make([]uint16, len(attrs))
	for i := 0; i < n; i++ {
		for c := range attrs {
			rec[c] = uint16(rng.Intn(attrs[c].Size()))
		}
		ds.Append(rec)
	}
	return ds
}

// TestProviderMatchesDirectCounts: tables served by the provider are
// bit-identical to MaterializeCounts over the materialized dataset,
// for any chunk size.
func TestProviderMatchesDirectCounts(t *testing.T) {
	attrs := testSchema()
	ds := randomDataset(3, 4000, attrs)
	v := func(a int) marginal.Var { return marginal.Var{Attr: a} }
	reqs := []marginal.CountRequest{
		{Parents: nil, Children: []marginal.Var{v(0)}},
		{Parents: []marginal.Var{v(0)}, Children: []marginal.Var{v(1), v(2)}},
		{Parents: []marginal.Var{v(2), v(3)}, Children: []marginal.Var{v(0), v(1)}},
		// 96 cells, past the popcount kernel's 64: the row walk.
		{Parents: []marginal.Var{v(0), v(2), v(3)}, Children: []marginal.Var{v(1)}},
	}

	for _, chunk := range []int{64, 999, 4000, 1 << 16} {
		p, err := NewProvider(context.Background(), dataset.DatasetSource(ds, chunk), 2)
		if err != nil {
			t.Fatal(err)
		}
		if p.Rows() != ds.N() {
			t.Fatalf("rows %d, want %d", p.Rows(), ds.N())
		}
		for _, req := range reqs {
			got, err := p.CountTables(req.Parents, req.Children)
			if err != nil {
				t.Fatal(err)
			}
			for j, ch := range req.Children {
				want := marginal.MaterializeCounts(ds, append(append([]marginal.Var(nil), req.Parents...), ch))
				for i := range want.P {
					if got[j].P[i] != want.P[i] {
						t.Fatalf("chunk %d table %d cell %d: %g vs %g", chunk, j, i, got[j].P[i], want.P[i])
					}
				}
			}
		}
	}
}

func TestProviderReturnsCopies(t *testing.T) {
	attrs := testSchema()
	ds := randomDataset(9, 500, attrs)
	p, err := NewProvider(context.Background(), dataset.DatasetSource(ds, 100), 1)
	if err != nil {
		t.Fatal(err)
	}
	v0 := marginal.Var{Attr: 0}
	a, err := p.CountTables(nil, []marginal.Var{v0})
	if err != nil {
		t.Fatal(err)
	}
	a[0].P[0] = -1e9
	b, err := p.CountTables(nil, []marginal.Var{v0})
	if err != nil {
		t.Fatal(err)
	}
	if b[0].P[0] == -1e9 {
		t.Fatal("caller mutation leaked into the provider's counts")
	}
}

// cancelAfterChunks wraps a scanner and calls cancel once it has
// yielded after chunks.
type cancelAfterChunks struct {
	dataset.Scanner
	cancel context.CancelFunc
	after  int
}

func (s *cancelAfterChunks) Next() (*dataset.Dataset, error) {
	chunk, err := s.Scanner.Next()
	if s.after--; s.after == 0 {
		s.cancel()
	}
	return chunk, err
}

// TestProviderContextCancel: the decode scan checks ctx between
// chunks, so a context cancelled before or during NewProvider fails it
// with context.Canceled.
func TestProviderContextCancel(t *testing.T) {
	attrs := testSchema()
	ds := randomDataset(9, 500, attrs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewProvider(ctx, dataset.DatasetSource(ds, 100), 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled before: want context.Canceled, got %v", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	src := &dataset.ChunkSource{Attrs: attrs, ChunkRows: 100, Open: func() (dataset.Scanner, error) {
		return &cancelAfterChunks{Scanner: dataset.ScanDataset(ds, 100), cancel: cancel, after: 2}, nil
	}}
	if _, err := NewProvider(ctx, src, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled during: want context.Canceled, got %v", err)
	}
}
