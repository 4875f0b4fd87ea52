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

func registerAll(t *testing.T, s *Store) {
	t.Helper()
	v := func(a int) marginal.Var { return marginal.Var{Attr: a} }
	for _, reg := range []struct {
		parents  []marginal.Var
		children []marginal.Var
	}{
		{nil, []marginal.Var{v(0), v(1)}},
		{[]marginal.Var{v(0)}, []marginal.Var{v(1), v(2), v(3)}},
		{[]marginal.Var{v(1), v(2)}, []marginal.Var{v(0), v(3)}},
		{[]marginal.Var{v(3), v(0), v(1)}, []marginal.Var{v(2)}},
	} {
		if err := s.Register(reg.parents, reg.children); err != nil {
			t.Fatal(err)
		}
	}
}

func storesEqual(t *testing.T, a, b *Store) {
	t.Helper()
	if a.Rows() != b.Rows() {
		t.Fatalf("rows %d vs %d", a.Rows(), b.Rows())
	}
	if len(a.groups) != len(b.groups) {
		t.Fatalf("groups %d vs %d", len(a.groups), len(b.groups))
	}
	for _, g := range a.groups {
		bts, err := b.CountTables(g.parents, g.children)
		if err != nil {
			t.Fatal(err)
		}
		for j, at := range g.tables {
			for i, c := range at.P {
				if c != bts[j].P[i] {
					t.Fatalf("table (%v | %v) cell %d: %g vs %g", g.children[j], g.parents, i, c, bts[j].P[i])
				}
			}
		}
	}
}

// TestMergeEqualsSinglePass is the shard-combinability property: K
// random splits of the rows, accumulated into K stores and merged,
// must equal single-pass accumulation exactly — for any K, any split
// boundaries, and any per-shard chunking.
func TestMergeEqualsSinglePass(t *testing.T) {
	attrs := testSchema()
	ds := randomDataset(11, 5000, attrs)
	rng := rand.New(rand.NewSource(23))

	single := NewStore(attrs)
	registerAll(t, single)
	if err := single.Accumulate(ds); err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 5; trial++ {
		k := 1 + rng.Intn(7)
		// Random shard boundaries over the row range.
		cuts := []int{0}
		for i := 1; i < k; i++ {
			cuts = append(cuts, rng.Intn(ds.N()+1))
		}
		cuts = append(cuts, ds.N())
		for i := 1; i < len(cuts); i++ {
			for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
				cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
			}
		}

		merged := NewStore(attrs)
		registerAll(t, merged)
		for i := 0; i+1 < len(cuts); i++ {
			shard := NewStore(attrs)
			shard.Parallelism = 1 + rng.Intn(4)
			registerAll(t, shard)
			// Feed the shard its rows in random-sized chunks.
			lo := cuts[i]
			for lo < cuts[i+1] {
				hi := min(lo+1+rng.Intn(977), cuts[i+1])
				if err := shard.Accumulate(ds.Slice(lo, hi)); err != nil {
					t.Fatal(err)
				}
				lo = hi
			}
			if err := merged.Merge(shard); err != nil {
				t.Fatal(err)
			}
		}
		storesEqual(t, single, merged)
	}
}

func TestMergeRejectsMismatch(t *testing.T) {
	attrs := testSchema()
	a := NewStore(attrs)
	registerAll(t, a)
	b := NewStore(attrs)
	if err := a.Merge(b); err == nil {
		t.Fatal("merge with missing tables accepted")
	}
	other := NewStore(attrs[:2])
	if err := a.Merge(other); err == nil {
		t.Fatal("merge across schemas accepted")
	}
	if err := a.Merge(a); err == nil {
		t.Fatal("self-merge accepted")
	}
}

func TestRegisterLimits(t *testing.T) {
	attrs := []dataset.Attribute{
		dataset.NewContinuous("big", 0, 1, 1<<14),
		dataset.NewContinuous("big2", 0, 1, 1<<14),
		dataset.NewContinuous("big3", 0, 1, 1<<14),
	}
	s := NewStore(attrs)
	v := func(a int) marginal.Var { return marginal.Var{Attr: a} }
	err := s.Register([]marginal.Var{v(0), v(1)}, []marginal.Var{v(2)})
	if !errors.Is(err, ErrTableTooLarge) {
		t.Fatalf("want ErrTableTooLarge, got %v", err)
	}
	if err := s.Register([]marginal.Var{v(9)}, []marginal.Var{v(0)}); err == nil {
		t.Fatal("out-of-schema variable accepted")
	}
}

// TestProviderMatchesDirectCounts: tables served by the scan-backed
// provider are bit-identical to ParentIndex.CountChildren over the
// materialized dataset, for any chunk size, and Prefetch batches all
// missing tables into one scan.
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
		if err := p.Prefetch(context.Background(), reqs); err != nil {
			t.Fatal(err)
		}
		scans, _ := p.Stats()
		if scans != 2 { // counting scan + one prefetch scan
			t.Fatalf("chunk %d: %d scans, want 2", chunk, scans)
		}
		for _, req := range reqs {
			got, err := p.CountTables(req.Parents, req.Children)
			if err != nil {
				t.Fatal(err)
			}
			want := marginal.BuildParentIndex(ds, req.Parents).CountChildren(ds, req.Children, 1)
			for j := range got {
				for i := range want[j].P {
					if got[j].P[i] != want[j].P[i] {
						t.Fatalf("chunk %d table %d cell %d: %g vs %g", chunk, j, i, got[j].P[i], want[j].P[i])
					}
				}
			}
		}
		// Serving prefetched tables must not have cost extra scans.
		if scans, _ := p.Stats(); scans != 2 {
			t.Fatalf("serving cached tables scanned (total %d)", scans)
		}
		// A fresh table after prefetch costs exactly one more scan.
		if _, err := p.CountTables([]marginal.Var{v(1)}, []marginal.Var{v(3)}); err != nil {
			t.Fatal(err)
		}
		if scans, _ := p.Stats(); scans != 3 {
			t.Fatalf("miss after prefetch: %d scans, want 3", scans)
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
	if err := p.Prefetch(context.Background(), []marginal.CountRequest{{Children: []marginal.Var{v0}}}); err != nil {
		t.Fatal(err)
	}
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
		t.Fatal("caller mutation leaked into the provider cache")
	}
	if scans, _ := p.Stats(); scans != 2 { // row count + prefetch
		t.Fatalf("%d scans, want both tables served from the prefetched store", scans)
	}
}

func TestProviderContextCancel(t *testing.T) {
	attrs := testSchema()
	ds := randomDataset(9, 500, attrs)
	ctx, cancel := context.WithCancel(context.Background())
	p, err := NewProvider(ctx, dataset.DatasetSource(ds, 100), 1)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := p.CountTables(nil, []marginal.Var{{Attr: 0}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The cancellation is sticky: a later call fails without scanning.
	if _, err := p.CountTables(nil, []marginal.Var{{Attr: 1}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("sticky error lost: %v", err)
	}
	if scans, _ := p.Stats(); scans != 1 {
		t.Fatalf("%d scans after cancellation, want only the row count", scans)
	}

	// Prefetch stops on either context, with that context's error.
	reqs := []marginal.CountRequest{{Children: []marginal.Var{{Attr: 0}}}}
	live, err := NewProvider(context.Background(), dataset.DatasetSource(ds, 100), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Prefetch(ctx, reqs); !errors.Is(err, context.Canceled) {
		t.Fatalf("prefetch under a cancelled call context: want context.Canceled, got %v", err)
	}
	fitCtx, stop := context.WithCancel(context.Background())
	ended, err := NewProvider(fitCtx, dataset.DatasetSource(ds, 100), 1)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if err := ended.Prefetch(context.Background(), reqs); !errors.Is(err, context.Canceled) {
		t.Fatalf("prefetch after the provider's context ended: want context.Canceled, got %v", err)
	}
}

func TestProviderDetectsSourceChange(t *testing.T) {
	attrs := testSchema()
	ds := randomDataset(9, 500, attrs)
	src := dataset.DatasetSource(ds, 100)
	p, err := NewProvider(context.Background(), src, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Grow the source behind the provider's back.
	ds.Append(make([]uint16, len(attrs)))
	if _, err := p.CountTables(nil, []marginal.Var{{Attr: 0}}); !errors.Is(err, ErrSourceChanged) {
		t.Fatalf("want ErrSourceChanged, got %v", err)
	}
}

func TestStoreSource(t *testing.T) {
	attrs := testSchema()
	ds := randomDataset(3, 1000, attrs)
	s := NewStore(attrs)
	registerAll(t, s)
	if err := s.Accumulate(ds); err != nil {
		t.Fatal(err)
	}
	if s.Rows() != 1000 {
		t.Fatalf("rows %d", s.Rows())
	}
	v := func(a int) marginal.Var { return marginal.Var{Attr: a} }
	got, err := s.CountTables([]marginal.Var{v(0)}, []marginal.Var{v(1), v(2)})
	if err != nil {
		t.Fatal(err)
	}
	want := marginal.BuildParentIndex(ds, []marginal.Var{v(0)}).CountChildren(ds, []marginal.Var{v(1), v(2)}, 1)
	for j := range got {
		for i := range want[j].P {
			if got[j].P[i] != want[j].P[i] {
				t.Fatalf("table %d cell %d: %g vs %g", j, i, got[j].P[i], want[j].P[i])
			}
		}
	}
	if _, err := s.CountTables([]marginal.Var{v(2)}, []marginal.Var{v(0)}); err == nil {
		t.Fatal("unregistered table served")
	}
}
