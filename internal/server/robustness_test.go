package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"privbayes/internal/accountant"
	"privbayes/internal/faultfs"
	"privbayes/internal/wal"
)

// fitForm builds the standard fit form for the robustness tests.
func fitForm(t *testing.T, datasetID string, epsilon float64, extra ...[2]string) (io.Reader, string) {
	t.Helper()
	schema, err := json.Marshal(SpecsFromAttrs(testSchema()))
	if err != nil {
		t.Fatal(err)
	}
	fields := [][2]string{
		{"dataset_id", datasetID},
		{"epsilon", fmt.Sprintf("%g", epsilon)},
		{"schema", string(schema)},
		{"seed", "7"},
	}
	fields = append(fields, extra...)
	fields = append(fields, [2]string{"data", string(fitCSV(t, testData(1500, 3)))})
	return multipartBody(t, fields)
}

// postFit sends one raw fit request with an optional Idempotency-Key.
func postFit(t *testing.T, base, key string, body io.Reader, contentType string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/fit", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestFitIdempotencyKey is the exactly-once contract for retried fits:
// replaying a keyed fit must spend no additional ε and return the model
// the first attempt produced; reusing the key with different parameters
// must be rejected, not silently honored.
func TestFitIdempotencyKey(t *testing.T) {
	ledger := accountant.New(1.0)
	_, c, _ := newTestServer(t, Config{Ledger: ledger})

	body, ct := fitForm(t, "survey", 0.6)
	resp := postFit(t, c.BaseURL, "retry-key-1", body, ct)
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("first keyed fit: %d %s", resp.StatusCode, raw)
	}
	var first ModelMeta
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}

	// The retry — the ambiguous-failure case: the client never saw the
	// 201 and resends the identical request.
	body, ct = fitForm(t, "survey", 0.6)
	resp = postFit(t, c.BaseURL, "retry-key-1", body, ct)
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("retried keyed fit: %d %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("X-Privbayes-Idempotency-Replay") != "true" {
		t.Error("retry not marked as a replay")
	}
	var second ModelMeta
	if err := json.NewDecoder(resp.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Errorf("retry returned model %q, first attempt made %q", second.ID, first.ID)
	}
	if spent := ledger.Get("survey").Spent; math.Abs(spent-0.6) > 1e-12 {
		t.Errorf("retried fit changed the spend: %g, want 0.6", spent)
	}

	// Same key, different ε: a client bug, not a retry.
	body, ct = fitForm(t, "survey", 0.3)
	resp = postFit(t, c.BaseURL, "retry-key-1", body, ct)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("key reuse with different ε: %d, want 409", resp.StatusCode)
	}
	if spent := ledger.Get("survey").Spent; math.Abs(spent-0.6) > 1e-12 {
		t.Errorf("rejected key reuse changed the spend: %g", spent)
	}
}

// TestFitIdempotentCompletionAfterCharge covers the crash window the
// WAL leaves open: the charge committed durably but the process died
// before the model was fitted. The retried request must find the
// recorded charge, finish the fit under the already-recorded model id,
// and spend nothing more.
func TestFitIdempotentCompletionAfterCharge(t *testing.T) {
	ledger := accountant.New(1.0)
	_, c, _ := newTestServer(t, Config{Ledger: ledger})

	// Simulate the interrupted first attempt: charge recorded, no model.
	if _, err := ledger.Charge("survey", 0.5, "crash-key", "survey-m1"); err != nil {
		t.Fatal(err)
	}

	body, ct := fitForm(t, "survey", 0.5)
	resp := postFit(t, c.BaseURL, "crash-key", body, ct)
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("completion fit: %d %s", resp.StatusCode, raw)
	}
	var meta ModelMeta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	if meta.ID != "survey-m1" {
		t.Errorf("completed fit under id %q, want the recorded survey-m1", meta.ID)
	}
	if spent := ledger.Get("survey").Spent; math.Abs(spent-0.5) > 1e-12 {
		t.Errorf("completion charged again: spent %g, want 0.5", spent)
	}
	// And now the finished fit replays.
	body, ct = fitForm(t, "survey", 0.5)
	resp = postFit(t, c.BaseURL, "crash-key", body, ct)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("replay after completion: %d, want 200", resp.StatusCode)
	}
}

// TestFitReplayedChargeKeptOnFailure: a retry that replays an earlier
// attempt's charge and then fails keeps that charge, because the
// earlier attempt may have served its model before a restart lost it.
// The key stays recorded, so the next retry under it completes the fit
// under the recorded model id with no second charge.
func TestFitReplayedChargeKeptOnFailure(t *testing.T) {
	ledger := accountant.New(1.0)
	_, c, _ := newTestServer(t, Config{Ledger: ledger})
	if _, err := ledger.Charge("survey", 0.5, "crash-key", "survey-m1"); err != nil {
		t.Fatal(err)
	}

	schema, err := json.Marshal(SpecsFromAttrs(testSchema()))
	if err != nil {
		t.Fatal(err)
	}
	body, ct := multipartBody(t, [][2]string{{"dataset_id", "survey"}, {"epsilon", "0.5"},
		{"schema", string(schema)}, {"data", "a,b,c\nred,10,no\n"}})
	resp := postFit(t, c.BaseURL, "crash-key", body, ct)
	if resp.StatusCode != http.StatusBadRequest {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("completion with a bad header: %d %s, want 400", resp.StatusCode, raw)
	}
	if spent := ledger.Get("survey").Spent; math.Abs(spent-0.5) > 1e-12 {
		t.Fatalf("failed completion changed the spend: %g, want 0.5", spent)
	}

	body, ct = fitForm(t, "survey", 0.5)
	resp = postFit(t, c.BaseURL, "crash-key", body, ct)
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("retry after the failed completion: %d %s", resp.StatusCode, raw)
	}
	var meta ModelMeta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	if meta.ID != "survey-m1" {
		t.Errorf("retry fitted %q, want the recorded survey-m1", meta.ID)
	}
	if spent := ledger.Get("survey").Spent; math.Abs(spent-0.5) > 1e-12 {
		t.Errorf("retry charged again: spent %g, want 0.5", spent)
	}
}

// TestFitChargeRecordsNameTheModel: a keyed and a keyless POST /fit
// each leave a charge record naming the model they registered, read
// back from the WAL after the ledger closes, and the reopened ledger
// still maps the key to its model.
func TestFitChargeRecordsNameTheModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.wal")
	ledger := openLedger(t, path)
	_, c, _ := newTestServer(t, Config{Ledger: ledger})

	var registered []string
	for _, key := range []string{"named-key", ""} {
		body, ct := fitForm(t, "survey", 0.25)
		resp := postFit(t, c.BaseURL, key, body, ct)
		if resp.StatusCode != http.StatusCreated {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("fit with key %q: %d %s", key, resp.StatusCode, raw)
		}
		var meta ModelMeta
		if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
			t.Fatal(err)
		}
		registered = append(registered, meta.ID)
	}
	if err := ledger.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := wal.OpenReader(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var charged []string
	for {
		_, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var rec struct {
			Op      string `json:"op"`
			ModelID string `json:"model_id"`
		}
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Op == "charge" {
			charged = append(charged, rec.ModelID)
		}
	}
	if !slices.Equal(charged, registered) {
		t.Fatalf("charge records name models %q, registered %q", charged, registered)
	}

	back := openLedger(t, path)
	spend, err := back.Charge("survey", 0.25, "named-key", "other")
	if err != nil || !spend.Replayed() || spend.ModelID() != registered[0] {
		t.Fatalf("keyed charge after reopening: %+v, err=%v, want a replay of %q", spend, err, registered[0])
	}
}

// TestFitPerDatasetCap: concurrent fits against one dataset past the
// cap are turned away with 429 + Retry-After before any ε is charged.
func TestFitPerDatasetCap(t *testing.T) {
	ledger := accountant.New(10.0)
	s, c, _ := newTestServer(t, Config{Ledger: ledger, MaxFitsPerDataset: 1})

	// Occupy the dataset's only fit slot.
	leave, ok := s.fits.enter("busy")
	if !ok {
		t.Fatal("gauge rejected the first entrant")
	}
	defer leave()

	body, ct := fitForm(t, "busy", 0.5)
	resp := postFit(t, c.BaseURL, "", body, ct)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fit past the per-dataset cap: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if spent := ledger.Get("busy").Spent; spent != 0 {
		t.Errorf("shed fit charged the ledger: %g", spent)
	}

	// A different dataset is unaffected.
	body, ct = fitForm(t, "other", 0.5)
	resp = postFit(t, c.BaseURL, "", body, ct)
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Errorf("fit for uncontended dataset: %d %s", resp.StatusCode, raw)
	}

	// Releasing the slot reopens the dataset.
	leave()
	body, ct = fitForm(t, "busy", 0.5)
	resp = postFit(t, c.BaseURL, "", body, ct)
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Errorf("fit after the slot freed: %d %s", resp.StatusCode, raw)
	}
}

// TestOverloadSheds: with the worker budget drained and the wait queue
// at its cap, synthesize, query and marginal requests are shed with
// 503 + Retry-After instead of queueing, and admitted work is
// unaffected.
func TestOverloadSheds(t *testing.T) {
	s, c, _ := newTestServer(t, Config{MaxWorkers: 2, MaxQueueDepth: 1})
	ctx := context.Background()

	// Drain the budget, then park one request at the queue cap.
	_, release, err := s.workers.acquire(ctx, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	queuedErr := make(chan error, 1)
	go func() {
		stream, err := c.Synthesize(ctx, "fixture", SynthesizeRequest{N: 10})
		if err == nil {
			_, err = io.ReadAll(stream.Body)
			stream.Close()
		}
		queuedErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.workers.queueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never parked")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The next arrival is shed.
	resp, err := http.Get(c.BaseURL + "/models/fixture/synthesize?n=10")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("synthesize under overload: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	// Queries shed under the same pressure.
	qresp, err := http.Post(c.BaseURL+"/models/fixture/query", "application/json",
		strings.NewReader(`{"kind":"marginal","attrs":[{"name":"color"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("query under overload: %d, want 503", qresp.StatusCode)
	}

	// So do marginals: /marginal is /query's marginal case, admission
	// included.
	mresp, err := http.Post(c.BaseURL+"/models/fixture/marginal", "application/json",
		strings.NewReader(`{"attrs":["color"]}`))
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("marginal under overload: %d, want 503", mresp.StatusCode)
	}
	if mresp.Header.Get("Retry-After") == "" {
		t.Error("marginal 503 without Retry-After")
	}

	// Releasing the budget lets the parked request finish normally.
	release()
	if err := <-queuedErr; err != nil {
		t.Errorf("queued request failed after the budget freed: %v", err)
	}
}

// TestPersistAtomicUnderFaults sweeps a fault through every mutating
// filesystem op of the model-artifact write: after any single failure
// or crash, the artifact path holds either nothing or a complete, valid
// document — never a torn file — and no temp litter survives a restart.
func TestPersistAtomicUnderFaults(t *testing.T) {
	m := fitTestModel(t)

	// Size the sweep against a passthrough run.
	probe := faultfs.NewFault(nil)
	dir := t.TempDir()
	s := &Server{cfg: Config{ModelsDir: dir}, fs: probe}
	path := filepath.Join(dir, "m.json")
	if err := s.atomicWriteModel(path, m, 0.5); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	if total < 5 {
		t.Fatalf("expected >= 5 mutating ops in an atomic write, saw %d", total)
	}

	check := func(t *testing.T, dir, path string) {
		t.Helper()
		if raw, err := os.ReadFile(path); err == nil {
			// Present must mean complete: it round-trips through full
			// validation.
			r := NewRegistry()
			if err := r.Add("m", "dir", strings.NewReader(string(raw))); err != nil {
				t.Errorf("artifact present but torn: %v", err)
			}
		} else if !os.IsNotExist(err) {
			t.Fatal(err)
		}
		// Whatever temp litter the failure left, a restarting server
		// sweeps it and loads the directory cleanly.
		s2, err := New(Config{ModelsDir: dir})
		if err != nil {
			t.Fatalf("restart over faulted dir: %v", err)
		}
		_ = s2
		if stale, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(stale) != 0 {
			t.Errorf("stale temp files survived restart: %v", stale)
		}
	}

	for n := int64(1); n <= total; n++ {
		t.Run(fmt.Sprintf("fail-op-%d", n), func(t *testing.T) {
			fault := faultfs.NewFault(nil)
			fault.FailAt(n, nil)
			dir := t.TempDir()
			s := &Server{cfg: Config{ModelsDir: dir}, fs: fault}
			path := filepath.Join(dir, "m.json")
			err := s.atomicWriteModel(path, m, 0.5)
			if n < total && err == nil {
				t.Fatalf("fault at op %d did not surface", n)
			}
			check(t, dir, path)
		})
		t.Run(fmt.Sprintf("crash-op-%d", n), func(t *testing.T) {
			fault := faultfs.NewFault(nil)
			fault.CrashAt(n, true)
			dir := t.TempDir()
			s := &Server{cfg: Config{ModelsDir: dir}, fs: fault}
			path := filepath.Join(dir, "m.json")
			if err := s.atomicWriteModel(path, m, 0.5); err == nil {
				t.Fatalf("crash at op %d did not surface", n)
			}
			check(t, dir, path)
		})
	}
}

// TestHealthReportsQueueDepth: /healthz exposes the load-shedding
// signal operators alert on.
func TestHealthReportsQueueDepth(t *testing.T) {
	_, c, _ := newTestServer(t, Config{})
	resp, err := http.Get(c.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if _, ok := body["queue_depth"]; !ok {
		t.Errorf("healthz missing queue_depth: %v", body)
	}
}
