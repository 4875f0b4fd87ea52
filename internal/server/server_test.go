package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"privbayes"
	"privbayes/internal/accountant"
	"privbayes/internal/core"
	"privbayes/internal/dataset"
)

// testSchema is a small mixed schema: categorical, continuous (with its
// automatic binary taxonomy), categorical.
func testSchema() []dataset.Attribute {
	return []dataset.Attribute{
		dataset.NewCategorical("color", []string{"red", "green", "blue"}),
		dataset.NewContinuous("age", 0, 80, 8),
		dataset.NewCategorical("employed", []string{"no", "yes"}),
	}
}

// testData draws n correlated rows over testSchema.
func testData(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.NewWithCapacity(testSchema(), n)
	rec := make([]uint16, 3)
	for i := 0; i < n; i++ {
		color := rng.Intn(3)
		age := rng.Intn(8)
		employed := 0
		if age > 2 && rng.Float64() < 0.8 {
			employed = 1
		}
		rec[0], rec[1], rec[2] = uint16(color), uint16(age), uint16(employed)
		ds.Append(rec)
	}
	return ds
}

// fitTestModel fits one deterministic model for the fixtures.
func fitTestModel(t testing.TB) *core.Model {
	t.Helper()
	m, err := privbayes.Fit(context.Background(), testData(3000, 7),
		privbayes.WithEpsilon(1.0), privbayes.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newTestServer stands up a Server (with the given config) behind
// httptest, pre-registering the fixture model as "fixture".
func newTestServer(t testing.TB, cfg Config) (*Server, *Client, *core.Model) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := fitTestModel(t)
	if err := s.Registry().Put("fixture", "dir", m, 1.0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, NewClient(ts.URL), m
}

func TestHealthAndModelMetadata(t *testing.T) {
	_, c, m := newTestServer(t, Config{})
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	models, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].ID != "fixture" {
		t.Fatalf("models = %+v", models)
	}
	meta, err := c.Model(ctx, "fixture")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Epsilon != 1.0 {
		t.Errorf("epsilon = %g", meta.Epsilon)
	}
	if len(meta.Attrs) != 3 || meta.Attrs[0].Name != "color" || meta.Attrs[1].Kind != "continuous" {
		t.Errorf("schema = %+v", meta.Attrs)
	}
	if len(meta.Network) != 3 {
		t.Errorf("network = %+v", meta.Network)
	}
	if meta.Degree != m.Network.Degree() {
		t.Errorf("degree = %d, want %d", meta.Degree, m.Network.Degree())
	}
	if _, err := c.Model(ctx, "nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown model: %v", err)
	}
}

// TestSynthesizeMatchesSampleP is the serving determinism contract: the
// streamed chunked response must be byte-identical to a monolithic
// SampleP call with the same seed — which also pins that streaming at
// any chunk boundary, worker count, or server load never changes the
// data a client receives.
func TestSynthesizeMatchesSampleP(t *testing.T) {
	_, c, m := newTestServer(t, Config{MaxWorkers: 3})
	// Crosses several core.StreamChunkRows chunks and ends mid-chunk.
	n := 2*core.StreamChunkRows + 5_000
	seed := int64(99)

	stream, err := c.Synthesize(context.Background(), "fixture", SynthesizeRequest{N: n, Seed: &seed, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if stream.Seed != seed {
		t.Errorf("echoed seed = %d, want %d", stream.Seed, seed)
	}
	got, err := io.ReadAll(stream.Body)
	if err != nil {
		t.Fatal(err)
	}

	want := new(bytes.Buffer)
	if err := m.SampleP(n, rand.New(rand.NewSource(seed)), 4).WriteCSV(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("streamed CSV differs from SampleP reference (%d vs %d bytes)", len(got), want.Len())
	}

	// Replaying the echoed seed reproduces the stream byte for byte.
	again, err := c.Synthesize(context.Background(), "fixture", SynthesizeRequest{N: n, Seed: &stream.Seed})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	raw, err := io.ReadAll(again.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, got) {
		t.Error("same seed did not reproduce the stream")
	}
}

func TestSynthesizeJSONL(t *testing.T) {
	_, c, _ := newTestServer(t, Config{})
	seed := int64(5)
	stream, err := c.Synthesize(context.Background(), "fixture", SynthesizeRequest{N: 1000, Seed: &seed, Format: "jsonl"})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	sc := bufio.NewScanner(stream.Body)
	rows := 0
	for sc.Scan() {
		var row map[string]any
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("row %d: %v", rows+1, err)
		}
		if len(row) != 3 {
			t.Fatalf("row %d has %d fields", rows+1, len(row))
		}
		if _, ok := row["color"].(string); !ok {
			t.Fatalf("row %d color = %v", rows+1, row["color"])
		}
		if _, ok := row["age"].(float64); !ok {
			t.Fatalf("row %d age = %v", rows+1, row["age"])
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 1000 {
		t.Errorf("rows = %d, want 1000", rows)
	}
}

func TestSynthesizeValidation(t *testing.T) {
	_, c, _ := newTestServer(t, Config{MaxSynthesisRows: 1000})
	ctx := context.Background()
	cases := []struct {
		name string
		req  SynthesizeRequest
		id   string
		want string
	}{
		{"missing n", SynthesizeRequest{}, "fixture", "n must be"},
		{"n too big", SynthesizeRequest{N: 5000}, "fixture", "n must be"},
		{"bad format", SynthesizeRequest{N: 10, Format: "parquet"}, "fixture", "format"},
		{"unknown model", SynthesizeRequest{N: 10}, "ghost", "404"},
	}
	for _, tc := range cases {
		if _, err := c.Synthesize(ctx, tc.id, tc.req); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestUploadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, c, m := newTestServer(t, Config{ModelsDir: dir})
	ctx := context.Background()

	var artifact bytes.Buffer
	if err := privbayes.SaveModel(&artifact, m, 0.7); err != nil {
		t.Fatal(err)
	}
	meta, err := c.Upload(ctx, "uploaded", bytes.NewReader(artifact.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != "uploaded" || meta.Epsilon != 0.7 || meta.Source != "upload" {
		t.Errorf("meta = %+v", meta)
	}
	// Persisted for restart.
	if _, err := os.Stat(filepath.Join(dir, "uploaded.json")); err != nil {
		t.Errorf("artifact not persisted: %v", err)
	}
	// Duplicate id → conflict.
	if _, err := c.Upload(ctx, "uploaded", bytes.NewReader(artifact.Bytes())); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("duplicate upload: %v", err)
	}
	// Malformed artifact → 422, typed rejection.
	if _, err := c.Upload(ctx, "bad", strings.NewReader(`{"version":1,"model":{"Attrs":[]}}`)); err == nil || !strings.Contains(err.Error(), "422") {
		t.Errorf("malformed upload: %v", err)
	}

	// A fresh server over the same directory reloads the artifact.
	s2, err := New(Config{ModelsDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, meta2, err := s2.Registry().Get("uploaded"); err != nil || meta2.Epsilon != 0.7 {
		t.Errorf("reloaded: meta=%+v err=%v", meta2, err)
	}
}

// TestGeneratedIDsSurviveRestart: the id counter restarts at zero with
// the process, but anonymous uploads must not collide with generated
// ids persisted by a previous run.
// TestLedgerFileCannotBeClobbered: with the ledger inside the models
// dir (the `make serve` default), a model registered as "ledger" must
// not overwrite the privacy ledger — and a ledger file clobbered some
// other way must fail closed at open rather than load as empty.
func TestLedgerFileCannotBeClobbered(t *testing.T) {
	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, "ledger.json")
	ledger := openLedger(t, ledgerPath)
	if err := ledger.Charge("d", 0.9); err != nil {
		t.Fatal(err)
	}
	_, c, m := newTestServer(t, Config{ModelsDir: dir, Ledger: ledger})

	var artifact bytes.Buffer
	if err := m.WriteJSON(&artifact, 1); err != nil {
		t.Fatal(err)
	}
	_, err := c.Upload(context.Background(), "ledger", bytes.NewReader(artifact.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "collides with the ledger") {
		t.Fatalf("upload as 'ledger': %v", err)
	}
	// The spend survives on disk.
	if e := openLedger(t, ledgerPath).Get("d"); e.Spent != 0.9 {
		t.Errorf("ledger entry after attack = %+v", e)
	}

	// Fail-closed: a model artifact written over the ledger path is
	// rejected at open, never silently loaded as an empty ledger.
	if err := os.WriteFile(ledgerPath, artifact.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := accountant.OpenWAL(ledgerPath, 1.0, accountant.Options{}); err == nil {
		t.Error("clobbered ledger must fail to open")
	}
}

// openLedger opens a WAL ledger with a default budget of 1, closed when
// the test ends.
func openLedger(t *testing.T, path string) *accountant.Ledger {
	t.Helper()
	l, err := accountant.OpenWAL(path, 1.0, accountant.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// captureLogs returns a Logger for Config.Logger and a func reading the
// lines it has written so far.
func captureLogs() (*slog.Logger, func() []string) {
	var buf bytes.Buffer
	return slog.New(slog.NewTextHandler(&buf, nil)), func() []string {
		return strings.Split(strings.TrimSpace(buf.String()), "\n")
	}
}

// TestLoadDirSkipsLedgerFile: the ledger living in the models dir must
// not produce a spurious "corrupt model" load error.
func TestLoadDirSkipsLedgerFile(t *testing.T) {
	dir := t.TempDir()
	ledger := openLedger(t, filepath.Join(dir, "ledger.json"))
	if err := ledger.Charge("d", 0.1); err != nil { // materialize the file
		t.Fatal(err)
	}
	logger, logs := captureLogs()
	s, err := New(Config{ModelsDir: dir, Ledger: ledger, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	if s.Registry().Len() != 0 {
		t.Errorf("registry = %d models", s.Registry().Len())
	}
	for _, l := range logs() {
		if strings.Contains(l, "skipping") {
			t.Errorf("ledger file produced a load error: %s", l)
		}
	}
}

func TestFreshIDCapsLength(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	id := s.freshID(strings.Repeat("d", 127) + "-fit")
	if !ValidID(id) {
		t.Errorf("generated id %q (len %d) fails ValidID", id, len(id))
	}
}

func TestGeneratedIDsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	m := fitTestModel(t)
	var artifact bytes.Buffer
	if err := m.WriteJSON(&artifact, 1); err != nil {
		t.Fatal(err)
	}
	raw := artifact.Bytes()

	s1, err := New(Config{ModelsDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	c1 := NewClient(ts1.URL)
	meta, err := c1.Upload(context.Background(), "", bytes.NewReader(raw))
	ts1.Close()
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != "upload-1" {
		t.Fatalf("first generated id = %q", meta.ID)
	}

	// "Restart": fresh server, same dir — upload-1 reloads from disk.
	s2, err := New(Config{ModelsDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	meta2, err := NewClient(ts2.URL).Upload(context.Background(), "", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("anonymous upload after restart: %v", err)
	}
	if meta2.ID != "upload-2" {
		t.Errorf("post-restart generated id = %q, want upload-2", meta2.ID)
	}
}

// TestUploadTooLargeGets413: blowing the size cap is a 413, not a 422
// claiming the (possibly valid) artifact is malformed.
func TestUploadTooLargeGets413(t *testing.T) {
	_, c, m := newTestServer(t, Config{MaxUploadBytes: 512})
	var artifact bytes.Buffer
	if err := m.WriteJSON(&artifact, 1); err != nil {
		t.Fatal(err)
	}
	if artifact.Len() <= 512 {
		t.Fatalf("fixture artifact unexpectedly small: %d bytes", artifact.Len())
	}
	_, err := c.Upload(context.Background(), "big", &artifact)
	if err == nil || !strings.Contains(err.Error(), "413") {
		t.Errorf("oversized upload: %v", err)
	}
}

func TestLoadDirSkipsCorruptArtifacts(t *testing.T) {
	dir := t.TempDir()
	m := fitTestModel(t)
	f, err := os.Create(filepath.Join(dir, "good.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(f, 1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(filepath.Join(dir, "corrupt.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	logger, logs := captureLogs()
	s, err := New(Config{ModelsDir: dir, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	if s.Registry().Len() != 1 {
		t.Errorf("registry has %d models, want 1 (corrupt skipped)", s.Registry().Len())
	}
	if lines := logs(); len(lines) < 2 { // one skip line + one loaded line
		t.Errorf("logs = %v", lines)
	}
}

func TestMarginalMatchesInference(t *testing.T) {
	_, c, m := newTestServer(t, Config{})
	res, err := c.Marginal(context.Background(), "fixture", []string{"color", "employed"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Query(context.Background(), core.Marginal("color", "employed"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.P) != len(want.P) {
		t.Fatalf("got %d cells, want %d", len(res.P), len(want.P))
	}
	var sum float64
	for i := range res.P {
		if math.Abs(res.P[i]-want.P[i]) > 1e-12 {
			t.Fatalf("cell %d: %g vs %g", i, res.P[i], want.P[i])
		}
		sum += res.P[i]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("marginal sums to %g", sum)
	}
	if _, err := c.Marginal(context.Background(), "fixture", []string{"ghost"}, 0); err == nil {
		t.Error("unknown attribute must fail")
	}
	if _, err := c.Marginal(context.Background(), "fixture", nil, 0); err == nil {
		t.Error("empty attribute list must fail")
	}
}

// fitCSV renders a dataset as the CSV a curator would upload.
func fitCSV(t testing.TB, ds *dataset.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFitCuratorMode(t *testing.T) {
	dir := t.TempDir()
	ledger := accountant.New(1.0)
	_, c, _ := newTestServer(t, Config{ModelsDir: dir, Ledger: ledger})
	ctx := context.Background()
	raw := fitCSV(t, testData(2000, 21))
	seed := int64(3)

	meta, err := c.Fit(ctx, FitRequest{
		DatasetID: "survey", Epsilon: 0.6, ModelID: "survey-v1", Seed: &seed,
		Schema: SpecsFromAttrs(testSchema()), Data: bytes.NewReader(raw),
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != "survey-v1" || meta.Source != "fit" || meta.Epsilon != 0.6 {
		t.Errorf("meta = %+v", meta)
	}
	// The fitted model serves immediately.
	stream, err := c.Synthesize(ctx, "survey-v1", SynthesizeRequest{N: 100, Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, stream.Body)
	stream.Close()
	// And is persisted.
	if _, err := os.Stat(filepath.Join(dir, "survey-v1.json")); err != nil {
		t.Errorf("fitted model not persisted: %v", err)
	}
	// Ledger reflects the spend.
	budget, err := c.Budget(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if e := budget["survey"]; math.Abs(e.Spent-0.6) > 1e-12 || e.Budget != 1.0 {
		t.Errorf("ledger entry = %+v", e)
	}

	// Second fit would push survey to 1.2 > 1.0 → 403, nothing spent.
	_, err = c.Fit(ctx, FitRequest{
		DatasetID: "survey", Epsilon: 0.6,
		Schema: SpecsFromAttrs(testSchema()), Data: bytes.NewReader(raw),
	})
	if err == nil || !strings.Contains(err.Error(), "403") || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("over-budget fit: %v", err)
	}
	if e := ledger.Get("survey"); math.Abs(e.Spent-0.6) > 1e-12 {
		t.Errorf("rejected fit changed the ledger: %+v", e)
	}

	// A fit that charges but fails mid-CSV refunds.
	_, err = c.Fit(ctx, FitRequest{
		DatasetID: "survey", Epsilon: 0.3,
		Schema: SpecsFromAttrs(testSchema()),
		Data:   strings.NewReader("color,age,employed\nmagenta,10,yes\n"),
	})
	if err == nil || !strings.Contains(err.Error(), "unknown label") {
		t.Fatalf("bad CSV fit: %v", err)
	}
	if e := ledger.Get("survey"); math.Abs(e.Spent-0.6) > 1e-12 {
		t.Errorf("failed fit not refunded: %+v", e)
	}
}

// TestFitCancelledClientRefundsLedger: a client that disconnects while
// its curator-mode fit is running must not be charged — the request
// context aborts the greedy loop promptly and the handler refunds the
// ε it metered up front. The fixture fit takes seconds uncancelled
// (binary d=16, n=100k selects a high degree), so the cancellation
// demonstrably lands mid-fit, and the refund poll doubles as a
// promptness check.
func TestFitCancelledClientRefundsLedger(t *testing.T) {
	ledger := accountant.New(10.0)
	_, c, _ := newTestServer(t, Config{Ledger: ledger})

	attrs := make([]dataset.Attribute, 16)
	for i := range attrs {
		attrs[i] = dataset.NewCategorical(string(rune('a'+i)), []string{"0", "1"})
	}
	ds := dataset.NewWithCapacity(attrs, 100_000)
	rec := make([]uint16, len(attrs))
	for r := 0; r < 100_000; r++ {
		for col := range rec {
			rec[col] = uint16((r*(col+3) + col*r/7 + r/11) % 2)
		}
		ds.Append(rec)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seed := int64(5)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Fit(ctx, FitRequest{
			DatasetID: "cancelme", Epsilon: 0.3, Seed: &seed,
			Schema: SpecsFromAttrs(attrs), Data: bytes.NewReader(fitCSV(t, ds)),
		})
		errc <- err
	}()

	// The handler charges before touching a row; once the spend is
	// visible, give the upload time to finish parsing so the fit is
	// underway, then kill the client.
	deadline := time.Now().Add(20 * time.Second)
	for ledger.Get("cancelme").Spent == 0 {
		if time.Now().After(deadline) {
			t.Fatal("fit never charged the ledger")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(500 * time.Millisecond)
	cancel()

	if err := <-errc; err == nil {
		t.Fatal("cancelled fit reported success to the client")
	}
	refundBy := time.Now().Add(10 * time.Second)
	for ledger.Get("cancelme").Spent != 0 {
		if time.Now().After(refundBy) {
			t.Fatalf("cancelled fit never refunded: %+v", ledger.Get("cancelme"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Nothing half-fitted may serve.
	if _, err := c.Model(context.Background(), "cancelme-fit-1"); err == nil {
		t.Error("cancelled fit registered a model")
	}
}

func TestFitDisabledWithoutLedger(t *testing.T) {
	_, c, _ := newTestServer(t, Config{})
	_, err := c.Fit(context.Background(), FitRequest{
		DatasetID: "d", Epsilon: 0.5,
		Schema: SpecsFromAttrs(testSchema()),
		Data:   bytes.NewReader(fitCSV(t, testData(100, 1))),
	})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Errorf("fit without ledger: %v", err)
	}
}

func TestFitSeedDeterminism(t *testing.T) {
	ledger := accountant.New(10)
	_, c, _ := newTestServer(t, Config{Ledger: ledger})
	ctx := context.Background()
	raw := fitCSV(t, testData(1500, 5))
	seed := int64(77)
	sseed := int64(1)

	var outs [][]byte
	for i := 0; i < 2; i++ {
		meta, err := c.Fit(ctx, FitRequest{
			DatasetID: "det", Epsilon: 0.4, ModelID: fmt.Sprintf("det-%d", i), Seed: &seed,
			Schema: SpecsFromAttrs(testSchema()), Data: bytes.NewReader(raw),
		})
		if err != nil {
			t.Fatal(err)
		}
		stream, err := c.Synthesize(ctx, meta.ID, SynthesizeRequest{N: 500, Seed: &sseed})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(stream.Body)
		stream.Close()
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, raw)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Error("same fit seed + same synthesis seed must reproduce identical data")
	}
}

// TestConcurrentSynthesisSharesWorkerBudget drives several simultaneous
// streams through a 2-worker budget: all must complete, and the budget
// must return to full when the requests drain — the invariant that a
// slow or dead client cannot pin workers.
func TestConcurrentSynthesisSharesWorkerBudget(t *testing.T) {
	s, c, _ := newTestServer(t, Config{MaxWorkers: 2})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := int64(i)
			stream, err := c.Synthesize(ctx, "fixture", SynthesizeRequest{N: core.StreamChunkRows + 100, Seed: &seed, Parallelism: 8})
			if err != nil {
				errs[i] = err
				return
			}
			defer stream.Close()
			// Read slowly enough to interleave chunks across requests.
			buf := make([]byte, 64<<10)
			for {
				_, err := stream.Body.Read(buf)
				if err == io.EOF {
					return
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("stream %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.workers.available() != 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.workers.available(); got != 2 {
		t.Errorf("worker budget leaked: %d of 2 available", got)
	}
}

// TestAbandonedRequestReleasesWorkers cancels a stream mid-read and
// checks the budget recovers.
func TestAbandonedRequestReleasesWorkers(t *testing.T) {
	s, c, _ := newTestServer(t, Config{MaxWorkers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	seed := int64(1)
	stream, err := c.Synthesize(ctx, "fixture", SynthesizeRequest{N: 4 * core.StreamChunkRows, Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	stream.Body.Read(buf)
	cancel()
	stream.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.workers.available() != 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.workers.available(); got != 1 {
		t.Errorf("abandoned request pinned the worker budget: %d of 1 available", got)
	}
}

func TestWorkerBudgetAcquire(t *testing.T) {
	b := newWorkerBudget(4, 64)
	ctx := context.Background()

	got, release, err := b.acquire(ctx, 3, false)
	if err != nil || got != 3 {
		t.Fatalf("acquire(3) = %d, %v", got, err)
	}
	// Elastic above the floor: asks for 8 but only 1 slot free — below
	// the 2-slot determinism floor, so it blocks until a release, then
	// takes everything available.
	done := make(chan int, 1)
	go func() {
		g, rel, err := b.acquire(ctx, 8, false)
		if err == nil {
			rel()
		}
		done <- g
	}()
	select {
	case g := <-done:
		t.Fatalf("acquire below the floor returned %d immediately", g)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if g := <-done; g != 4 {
		t.Errorf("unblocked acquire got %d, want 4", g)
	}
	// Asks below the floor are raised to it.
	gotF, relF, err := b.acquire(ctx, 1, false)
	if err != nil || gotF != 2 {
		t.Fatalf("acquire(1) = %d, %v, want floor grant 2", gotF, err)
	}
	relF()
	if b.available() != 4 {
		t.Errorf("available = %d, want 4", b.available())
	}
	// A total budget of 1 has floor 1 (the documented exception).
	b1 := newWorkerBudget(1, 64)
	g1, rel1, err := b1.acquire(ctx, 4, false)
	if err != nil || g1 != 1 {
		t.Fatalf("budget-1 acquire = %d, %v", g1, err)
	}
	rel1()

	// Cancelled context aborts a blocked acquire.
	_, rel3, err := b.acquire(ctx, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		_, _, err := b.acquire(cctx, 1, false)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled acquire: %v", err)
	}
	rel3()

	// Double release is idempotent.
	g, rel, err := b.acquire(ctx, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	rel()
	if b.available() != 4 {
		t.Errorf("double release corrupted the budget: %d (granted %d)", b.available(), g)
	}
}

// TestFitRejectsFieldsAfterData guards the metering order: the ledger
// is charged from the fields in hand when the data part arrives, so a
// field accepted afterwards could rewrite ε after the charge. Any such
// request must be rejected outright with the charge refunded.
func TestFitRejectsFieldsAfterData(t *testing.T) {
	ledger := accountant.New(10)
	_, c, _ := newTestServer(t, Config{Ledger: ledger})

	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	mw.WriteField("dataset_id", "sneaky")
	mw.WriteField("epsilon", "0.1")
	schema, _ := json.Marshal(SpecsFromAttrs(testSchema()))
	mw.WriteField("schema", string(schema))
	fw, _ := mw.CreateFormFile("data", "data.csv")
	fw.Write(fitCSV(t, testData(500, 31)))
	mw.WriteField("epsilon", "50") // after the charge — must be refused
	mw.Close()

	req, _ := http.NewRequest(http.MethodPost, c.BaseURL+"/fit", &body)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "data must come last") {
		t.Errorf("body = %s", raw)
	}
	if e := ledger.Get("sneaky"); e.Spent != 0 {
		t.Errorf("rejected request left ε=%g charged", e.Spent)
	}
}

// TestFitRejectsMalformedTrailingPart: a part with broken MIME headers
// after the data part must reject the whole fit (with refund), not be
// silently dropped from an accepted one.
func TestFitRejectsMalformedTrailingPart(t *testing.T) {
	ledger := accountant.New(10)
	_, c, _ := newTestServer(t, Config{Ledger: ledger})
	schema, _ := json.Marshal(SpecsFromAttrs(testSchema()))
	csv := fitCSV(t, testData(300, 8))

	const b = "testboundary42"
	var body bytes.Buffer
	field := func(name, val string) {
		fmt.Fprintf(&body, "--%s\r\nContent-Disposition: form-data; name=%q\r\n\r\n%s\r\n", b, name, val)
	}
	field("dataset_id", "malformed")
	field("epsilon", "0.2")
	field("schema", string(schema))
	fmt.Fprintf(&body, "--%s\r\nContent-Disposition: form-data; name=\"data\"; filename=\"d.csv\"\r\nContent-Type: text/csv\r\n\r\n%s\r\n", b, csv)
	fmt.Fprintf(&body, "--%s\r\nHeaderWithoutColon\r\n\r\nx\r\n--%s--\r\n", b, b)

	req, _ := http.NewRequest(http.MethodPost, c.BaseURL+"/fit", &body)
	req.Header.Set("Content-Type", "multipart/form-data; boundary="+b)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, body = %s", resp.StatusCode, raw)
	}
	if e := ledger.Get("malformed"); e.Spent != 0 {
		t.Errorf("malformed request left ε=%g charged", e.Spent)
	}
}

// TestMarginalClampsMaxCells: an adversarial max_cells cannot lift the
// server's inference-memory ceiling — the request still succeeds on a
// small model because the bound is clamped, not trusted.
func TestMarginalClampsMaxCells(t *testing.T) {
	_, c, _ := newTestServer(t, Config{})
	res, err := c.Marginal(context.Background(), "fixture", []string{"color"}, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.P) != 3 {
		t.Fatalf("cells = %d", len(res.P))
	}
}

// TestSynthesizePOSTJSONBody covers the POST body path, including the
// charset-bearing Content-Type most HTTP libraries send.
func TestSynthesizePOSTJSONBody(t *testing.T) {
	_, c, _ := newTestServer(t, Config{})
	body := `{"n": 100, "seed": 3, "format": "csv"}`
	req, _ := http.NewRequest(http.MethodPost, c.BaseURL+"/models/fixture/synthesize", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Privbayes-Seed"); got != "3" {
		t.Errorf("seed header = %q", got)
	}
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		lines++
	}
	if lines != 101 { // header + 100 rows
		t.Errorf("lines = %d, want 101", lines)
	}
}

func TestRequestWorkersHonorsPerRequestCap(t *testing.T) {
	s, _, _ := newTestServer(t, Config{MaxWorkers: 8, MaxRequestParallelism: 3})
	cases := map[int]int{0: 3, 1: 1, 3: 3, 4: 3, 1000: 3}
	for asked, want := range cases {
		if got := s.requestWorkers(asked); got != want {
			t.Errorf("requestWorkers(%d) = %d, want %d", asked, got, want)
		}
	}
}

func TestSchemaFromSpecsValidation(t *testing.T) {
	good := SpecsFromAttrs(testSchema())
	if attrs, err := dataset.SchemaFromSpecs(good); err != nil || len(attrs) != 3 {
		t.Fatalf("round trip: %v", err)
	}
	cases := []struct {
		name string
		mod  func([]AttrSpec) []AttrSpec
	}{
		{"empty", func(s []AttrSpec) []AttrSpec { return nil }},
		{"no name", func(s []AttrSpec) []AttrSpec { s[0].Name = ""; return s }},
		{"dup name", func(s []AttrSpec) []AttrSpec { s[1].Name = s[0].Name; return s }},
		{"bad kind", func(s []AttrSpec) []AttrSpec { s[0].Kind = "ordinal"; return s }},
		{"no labels", func(s []AttrSpec) []AttrSpec { s[0].Labels = nil; return s }},
		{"dup labels", func(s []AttrSpec) []AttrSpec { s[0].Labels = []string{"a", "a"}; return s }},
		{"zero bins", func(s []AttrSpec) []AttrSpec { s[1].Bins = 0; return s }},
		{"inverted range", func(s []AttrSpec) []AttrSpec { s[1].Min, s[1].Max = 5, -5; return s }},
		{"nan min", func(s []AttrSpec) []AttrSpec { s[1].Min = math.NaN(); return s }},
		{"inf max", func(s []AttrSpec) []AttrSpec { s[1].Max = math.Inf(1); return s }},
	}
	for _, tc := range cases {
		specs := SpecsFromAttrs(testSchema())
		if _, err := dataset.SchemaFromSpecs(tc.mod(specs)); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}
