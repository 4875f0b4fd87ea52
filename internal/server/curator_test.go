package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"privbayes/internal/accountant"
	"privbayes/internal/curator"
	"privbayes/internal/dataset"
)

// jsonlRows renders a dataset as the JSONL wire form of
// POST /datasets/{id}/rows: one object per row, keyed by attribute
// name, labels for categoricals and bin-center values for continuous.
func jsonlRows(t *testing.T, ds *dataset.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	attrs := ds.Attrs()
	obj := make(map[string]any, len(attrs))
	for i := 0; i < ds.N(); i++ {
		for c := range attrs {
			a := &attrs[c]
			if a.Kind == dataset.Continuous {
				obj[a.Name] = a.BinCenter(ds.Value(i, c))
			} else {
				obj[a.Name] = a.Label(ds.Value(i, c))
			}
		}
		b, err := json.Marshal(obj)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// wantStatus asserts err is an *APIError with the given HTTP status.
func wantStatus(t *testing.T, err error, code int) {
	t.Helper()
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want *APIError with status %d, got %v", code, err)
	}
	if ae.StatusCode != code {
		t.Fatalf("status = %d (%s), want %d", ae.StatusCode, ae.Message, code)
	}
}

// TestAppendRowsOverBatchCap: a batch one row past curator.MaxBatchRows
// gets 413 with the split hint, and nothing is appended.
func TestAppendRowsOverBatchCap(t *testing.T) {
	_, c, _ := newTestServer(t, Config{CuratorDir: t.TempDir()})
	ctx := context.Background()
	specs := SpecsFromAttrs([]dataset.Attribute{dataset.NewCategorical("flag", []string{"no", "yes"})})
	if _, err := c.CreateDataset(ctx, "big", specs); err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte(`{"flag":"yes"}`+"\n"), curator.MaxBatchRows+1)
	_, err := c.AppendRows(ctx, "big", "", bytes.NewReader(body))
	wantStatus(t, err, http.StatusRequestEntityTooLarge)
	if want := fmt.Sprintf("batch exceeds %d rows; split the append", curator.MaxBatchRows); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
	st, err := c.DatasetStatus(ctx, "big")
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 0 {
		t.Fatalf("rows after rejected batch = %d, want 0", st.Rows)
	}
}

// TestCuratorEndToEnd drives the continuous-curation loop over HTTP:
// create a dataset, stream row batches in (with idempotent retries),
// watch the row trigger fire a budget-metered background refit, query
// the republished model, then append more and watch an incremental
// refit compose a second ε charge on the same ledger entry.
func TestCuratorEndToEnd(t *testing.T) {
	led := accountant.New(5)
	_, c, _ := newTestServer(t, Config{
		Ledger:              led,
		CuratorDir:          t.TempDir(),
		RefitEpsilon:        0.8,
		RefitRows:           500,
		CuratorPollInterval: 20 * time.Millisecond,
	})
	ctx := context.Background()
	specs := SpecsFromAttrs(testSchema())

	st, err := c.CreateDataset(ctx, "stream", specs)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "stream" || st.Rows != 0 {
		t.Fatalf("created status = %+v", st)
	}
	_, err = c.CreateDataset(ctx, "stream", specs)
	wantStatus(t, err, http.StatusConflict)
	_, err = c.DatasetStatus(ctx, "nope")
	wantStatus(t, err, http.StatusNotFound)
	_, err = c.AppendRows(ctx, "nope", "", bytes.NewReader(jsonlRows(t, testData(1, 1))))
	wantStatus(t, err, http.StatusNotFound)

	// Batch b1: 300 rows, below the 500-row refit trigger.
	b1 := jsonlRows(t, testData(300, 1))
	res, err := c.AppendRows(ctx, "stream", "b1", bytes.NewReader(b1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 300 || res.Duplicate || res.TotalRows != 300 {
		t.Fatalf("append b1 = %+v", res)
	}
	// Replaying an acknowledged key is a no-op — the retry contract.
	res, err = c.AppendRows(ctx, "stream", "b1", bytes.NewReader(b1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Duplicate || res.TotalRows != 300 {
		t.Fatalf("replay b1 = %+v", res)
	}
	// Malformed rows reject whole-batch, before any acknowledgement.
	_, err = c.AppendRows(ctx, "stream", "bad",
		bytes.NewReader([]byte(`{"color":"mauve","age":30,"employed":"no"}`+"\n")))
	wantStatus(t, err, http.StatusBadRequest)
	if st, _ := c.DatasetStatus(ctx, "stream"); st.Rows != 300 {
		t.Fatalf("rows after rejected batch = %d", st.Rows)
	}

	// Batch b2 crosses the row trigger: 600 total ≥ 500.
	if _, err := c.AppendRows(ctx, "stream", "b2", bytes.NewReader(jsonlRows(t, testData(300, 2)))); err != nil {
		t.Fatal(err)
	}
	st = waitForModel(t, c, "stream", "stream-refit-600")
	if st.FitKind != "cold" || st.FitRows != 600 || st.FitEpsilon != 0.8 {
		t.Fatalf("first refit status = %+v", st)
	}
	if got := led.Get("stream").Spent; got != 0.8 {
		t.Fatalf("ε after first refit = %g, want 0.8", got)
	}

	// The republished model serves synthesis like any registered model.
	seed := int64(3)
	stream, err := c.Synthesize(ctx, "stream-refit-600", SynthesizeRequest{N: 50, Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		rows++
	}
	stream.Close()
	if rows != 51 { // header + 50 rows
		t.Fatalf("synthesized %d lines, want 51", rows)
	}

	// Another 600 rows re-arm the trigger; this refit is incremental
	// (the known network over the resident rows) and composes ε on the
	// ledger.
	if _, err := c.AppendRows(ctx, "stream", "b3", bytes.NewReader(jsonlRows(t, testData(600, 4)))); err != nil {
		t.Fatal(err)
	}
	st = waitForModel(t, c, "stream", "stream-refit-1200")
	if st.FitKind != "incremental" || st.FitRows != 1200 {
		t.Fatalf("second refit status = %+v", st)
	}
	if got := led.Get("stream").Spent; got != 1.6 {
		t.Fatalf("ε after second refit = %g, want 1.6", got)
	}
	if st.EpsilonSpent != 1.6 || st.EpsilonBudget != 5 {
		t.Fatalf("status ledger fields = %+v", st)
	}

	list, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != "stream" || list[0].Rows != 1200 {
		t.Fatalf("datasets list = %+v", list)
	}
}

// waitForModel polls dataset status until the given refit model is
// published and the refit worker has settled.
func waitForModel(t *testing.T, c *Client, id, modelID string) curator.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.DatasetStatus(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.ModelID == modelID && !st.Refitting {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, _ := c.DatasetStatus(context.Background(), id)
	t.Fatalf("timed out waiting for %s on %s; status = %+v", modelID, id, st)
	return curator.Status{}
}

// TestCuratorDisabled checks the /datasets surface degrades cleanly
// when the server runs without a curator directory.
func TestCuratorDisabled(t *testing.T) {
	_, c, _ := newTestServer(t, Config{})
	_, err := c.Datasets(context.Background())
	wantStatus(t, err, http.StatusServiceUnavailable)
	_, err = c.CreateDataset(context.Background(), "x", SpecsFromAttrs(testSchema()))
	wantStatus(t, err, http.StatusServiceUnavailable)
}

// TestFitEndToEndBoundedMemory is the serving-side memory bound of
// POST /fit: the handler decodes the upload straight off the request
// into bit-packed columns, 4 096 rows of staging at a time, so
// whole-process peak heap during a large fit holds the packed rows (1
// bit a cell, 0.7 MiB here), never the upload's text. The watcher
// samples heap throughout; 2-byte columns alone would hold n*d*2 bytes
// live.
func TestFitEndToEndBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("large fit in -short mode")
	}
	const n = 1_000_000
	const d = 6
	specs := make([]AttrSpec, d)
	for i := range specs {
		specs[i] = AttrSpec{Name: fmt.Sprintf("a%d", i), Kind: "categorical", Labels: []string{"0", "1"}}
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

	_, c, _ := newTestServer(t, Config{
		Ledger: accountant.New(10),
	})

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

	data, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	seed := int64(7)
	meta, err := c.Fit(context.Background(), FitRequest{
		DatasetID: "big",
		Epsilon:   1,
		ModelID:   "big-v1",
		Seed:      &seed,
		Schema:    specs,
		Data:      data,
	})
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != "big-v1" || len(meta.Network) != d {
		t.Fatalf("fit meta = %+v", meta)
	}

	const materialized = n * d * 2 // uint16 columns
	growth := int64(peak.Load()) - int64(base.HeapAlloc)
	t.Logf("heap growth during served fit: %.1f MiB (materialized would be %.1f MiB)",
		float64(growth)/(1<<20), float64(materialized)/(1<<20))
	if growth > materialized/2 {
		t.Fatalf("served fit heap growth %d exceeds %d (half the 2-byte columns); out-of-core path not bounding memory",
			growth, materialized/2)
	}
}
