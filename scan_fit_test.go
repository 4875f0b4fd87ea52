package privbayes

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"privbayes/internal/dataset"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// modelBytes serializes a model for byte-for-byte comparison.
func modelBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveModel(&buf, m, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFitScannerMatchesFit is the out-of-core contract at the facade:
// a fit that only ever sees chunked scans of a CSV file produces the
// byte-identical model an in-memory fit produces from the same rows,
// for the same seed — across chunk sizes and parallelism settings,
// and for both the in-memory-source and on-disk-source paths.
func TestFitScannerMatchesFit(t *testing.T) {
	ds := toyData(8000, 17)
	path := filepath.Join(t.TempDir(), "rows.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, par := range []int{1, 2} {
		want, err := Fit(context.Background(), ds, WithEpsilon(1), WithSeed(5), WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		wantB := modelBytes(t, want)
		for _, chunk := range []int{500, 4096, 0} {
			got, err := FitScanner(context.Background(), CSVSource(path, ds.Attrs(), chunk),
				WithEpsilon(1), WithSeed(5), WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(modelBytes(t, got), wantB) {
				t.Errorf("CSV scanner fit (chunk %d, parallelism %d) differs from in-memory fit", chunk, par)
			}
			got, err = FitScanner(context.Background(), DatasetSource(ds, chunk),
				WithEpsilon(1), WithSeed(5), WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(modelBytes(t, got), wantB) {
				t.Errorf("dataset scanner fit (chunk %d, parallelism %d) differs from in-memory fit", chunk, par)
			}
		}
	}
}

// TestFitScannerJSONLMatchesCSV: the two file formats feed the same
// pipeline, so they fit the same model from the same rows and seed.
func TestFitScannerJSONLMatchesCSV(t *testing.T) {
	ds := toyData(4000, 23)
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "rows.csv")
	jsonlPath := filepath.Join(dir, "rows.jsonl")
	cf, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(cf); err != nil {
		t.Fatal(err)
	}
	cf.Close()
	jf, err := os.Create(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	jw := dataset.NewJSONLWriter(jf, ds.Attrs())
	if err := jw.WriteRows(ds, 0, ds.N()); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	a, err := FitScanner(context.Background(), CSVSource(csvPath, ds.Attrs(), 700), WithEpsilon(1), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitScanner(context.Background(), JSONLSource(jsonlPath, ds.Attrs(), 1300), WithEpsilon(1), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(modelBytes(t, a), modelBytes(t, b)) {
		t.Error("JSONL scanner fit differs from CSV scanner fit")
	}
}

// TestFitScannerErrors covers the facade failure paths: bad options,
// missing file, cancellation.
func TestFitScannerErrors(t *testing.T) {
	attrs := []Attribute{NewCategorical("a", []string{"0", "1"})}
	src := CSVSource(filepath.Join(t.TempDir(), "absent.csv"), attrs, 0)
	if _, err := FitScanner(context.Background(), src); err == nil {
		t.Error("missing WithEpsilon accepted")
	}
	if _, err := FitScanner(context.Background(), src, WithEpsilon(1)); err == nil {
		t.Error("missing file accepted")
	}
	ds := toyData(2000, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FitScanner(ctx, DatasetSource(ds, 100), WithEpsilon(1), WithSeed(1)); err == nil {
		t.Error("cancelled context accepted")
	}
}

// TestFitScannerMillionRowsBoundedMemory is the acceptance bound of the
// out-of-core path: fitting a 1M-row CSV holds its rows bit-packed
// (1 bit a binary cell, 0.7 MiB here) plus one 8192-row chunk of decode
// staging — 2-byte columns alone would hold 12 MiB live. A watcher
// goroutine samples heap usage throughout the fit and the peak
// (including uncollected decode garbage) must stay under half of the
// 2-byte size.
func TestFitScannerMillionRowsBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row fit in -short mode")
	}
	const n = 1_000_000
	attrs := make([]Attribute, 6)
	for i := range attrs {
		attrs[i] = NewCategorical(fmt.Sprintf("a%d", i), []string{"0", "1"})
	}
	path := filepath.Join(t.TempDir(), "big.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "a0,a1,a2,a3,a4,a5")
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		a := rng.Intn(2)
		b := a
		if rng.Float64() < 0.1 {
			b = 1 - a
		}
		fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d\n", a, b, rng.Intn(2), rng.Intn(2), rng.Intn(2), rng.Intn(2))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Two collections: the first leaves sync.Pool victims from earlier
	// tests live, which would raise the heap goal.
	runtime.GC()
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	var peak atomic.Uint64
	done := make(chan struct{})
	go func() {
		var ms runtime.MemStats
		for {
			select {
			case <-done:
				return
			default:
			}
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	m, err := FitScanner(context.Background(), CSVSource(path, attrs, 8192),
		WithEpsilon(1), WithSeed(7), WithDegree(2), WithParallelism(2))
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	if m.Network.Degree() > 2 || len(m.Network.Pairs) != len(attrs) {
		t.Fatalf("unexpected model shape: degree %d, %d pairs", m.Network.Degree(), len(m.Network.Pairs))
	}

	growth := int64(peak.Load()) - int64(base.HeapAlloc)
	const materialized = int64(n * 6 * 2) // 12 MiB of uint16 columns
	if growth > materialized/2 {
		t.Errorf("peak heap growth %d bytes; want <= %d (2-byte columns would take %d)",
			growth, materialized/2, materialized)
	}
	t.Logf("1M-row scanner fit: peak heap growth %.1f MiB (2-byte columns would be %.1f MiB)",
		float64(growth)/(1<<20), float64(materialized)/(1<<20))
}
