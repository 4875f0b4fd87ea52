package server

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privbayes/internal/accountant"
)

// testPolicy keeps retry waits negligible in tests.
func testPolicy(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

// TestClientRetriesTransientFailures: 503s with Retry-After are
// absorbed by the policy; the request eventually succeeds.
func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			writeError(w, http.StatusServiceUnavailable, "overloaded")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.Retry = testPolicy(4)
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health after transient 503s: %v", err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d attempts, want 3", n)
	}
}

// TestClientRetryGivesUp: the policy bounds the attempts, and the last
// failure is reported.
func TestClientRetryGivesUp(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusServiceUnavailable, "still overloaded")
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.Retry = testPolicy(3)
	err := c.Health(context.Background())
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("exhausted retries: %v", err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d attempts, want 3", n)
	}
}

// TestClientDoesNotRetryClientErrors: a 4xx is a fact, not a transient.
func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusNotFound, "no such model")
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.Retry = testPolicy(4)
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("expected an error")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d attempts, want 1 (no retry on 404)", n)
	}
}

// TestFitRetryChargesOnce is the end-to-end exactly-once contract: the
// first fit attempt is fully processed server-side, but its response
// never reaches the client (ambiguous failure). The automatic retry —
// same generated Idempotency-Key, rewound body — must return the model
// the first attempt produced, with ε charged exactly once.
func TestFitRetryChargesOnce(t *testing.T) {
	ledger := accountant.New(1.0)
	s, err := New(Config{Ledger: ledger})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	lossy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fit" && calls.Add(1) == 1 {
			// Process the fit for real, then lose the response.
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, r)
			w.Header().Set("Retry-After", "0")
			writeError(w, http.StatusBadGateway, "connection lost mid-response")
			return
		}
		s.ServeHTTP(w, r)
	}))
	defer lossy.Close()

	c := NewClient(lossy.URL)
	c.Retry = testPolicy(4)
	seed := int64(7)
	meta, err := c.Fit(context.Background(), FitRequest{
		DatasetID: "survey", Epsilon: 0.6, Seed: &seed,
		Schema: SpecsFromAttrs(testSchema()),
		Data:   bytes.NewReader(fitCSV(t, testData(1500, 3))), // io.Seeker: rewindable
	})
	if err != nil {
		t.Fatalf("fit through lossy transport: %v", err)
	}
	if meta.ID == "" || meta.Source != "fit" {
		t.Errorf("meta = %+v", meta)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("fit attempts = %d, want 2", n)
	}
	if spent := ledger.Get("survey").Spent; math.Abs(spent-0.6) > 1e-12 {
		t.Errorf("spent = %g after a retried fit, want exactly 0.6", spent)
	}
}

// TestFitNonRewindableBodyIsNotRetried: without an io.Seeker body the
// request cannot be replayed, so the policy is ignored for it.
func TestFitNonRewindableBodyIsNotRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		io.Copy(io.Discard, r.Body)
		writeError(w, http.StatusServiceUnavailable, "overloaded")
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.Retry = testPolicy(4)
	raw := fitCSV(t, testData(100, 1))
	_, err := c.Fit(context.Background(), FitRequest{
		DatasetID: "survey", Epsilon: 0.1,
		Schema: SpecsFromAttrs(testSchema()),
		Data:   io.MultiReader(bytes.NewReader(raw)), // hides the Seeker
	})
	if err == nil {
		t.Fatal("expected the 503 to surface")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d attempts, want 1", n)
	}
}

// flakyAppendServer answers its first request 503 with Retry-After 0
// and every later one 200, recording each request body it reads.
func flakyAppendServer(t *testing.T) (*Client, func() []string) {
	t.Helper()
	var mu sync.Mutex
	var bodies []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(raw))
		first := len(bodies) == 1
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "0")
			writeError(w, http.StatusServiceUnavailable, "overloaded")
			return
		}
		writeJSON(w, http.StatusOK, AppendResult{Rows: 1, TotalRows: 1})
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.Retry = testPolicy(3)
	return c, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), bodies...)
	}
}

// headedRows is a rows body behind a 7-byte header line the caller
// consumes before handing the reader to AppendRows.
const headedRows = "HEADER\n{\"a\":1}\n"

// wantSameBodies asserts the server saw two attempts, both carrying
// the rows after the header.
func wantSameBodies(t *testing.T, bodies []string) {
	t.Helper()
	want := headedRows[7:]
	if len(bodies) != 2 || bodies[0] != want || bodies[1] != want {
		t.Errorf("attempt bodies = %q, want two of %q", bodies, want)
	}
}

// TestAppendRowsRetryReplaysFromCallOffset: a retried append resends
// the body from the offset the reader had when AppendRows was called,
// not from its start, so both attempts carry the same bytes.
func TestAppendRowsRetryReplaysFromCallOffset(t *testing.T) {
	c, bodies := flakyAppendServer(t)
	rows := bytes.NewReader([]byte(headedRows))
	if _, err := rows.Seek(7, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendRows(context.Background(), "d", "k1", rows); err != nil {
		t.Fatal(err)
	}
	wantSameBodies(t, bodies())
}

// TestAppendRowsRetryKeepsCallerFileOpen: an *os.File body — which
// net/http would close after the first attempt — is replayed on retry
// and left open for the caller who owns it.
func TestAppendRowsRetryKeepsCallerFileOpen(t *testing.T) {
	c, bodies := flakyAppendServer(t)
	path := filepath.Join(t.TempDir(), "rows.jsonl")
	if err := os.WriteFile(path, []byte(headedRows), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(7, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendRows(context.Background(), "d", "k1", f); err != nil {
		t.Fatalf("append from a file through one 503: %v", err)
	}
	wantSameBodies(t, bodies())
	if err := f.Close(); err != nil {
		t.Errorf("the caller's file was closed by the client: %v", err)
	}
}

// TestRetryRewindsAfterTheTransportStopsReading: the server sheds the
// first attempt without reading its body and holds that connection
// open until the retry is read, so the transport is still sending the
// first attempt's body when the client rewinds it for the retry. The
// rewind must not race that read (run with -race), and the retry must
// carry the body whole.
func TestRetryRewindsAfterTheTransportStopsReading(t *testing.T) {
	data := bytes.Repeat([]byte("{\"a\":1}\n"), 1<<21) // 16 MiB: more than the socket buffers hold
	var calls atomic.Int64
	retried := make(chan []byte, 1)
	read := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Full duplex: answer without first draining the body.
			rc := http.NewResponseController(w)
			rc.EnableFullDuplex()
			const shed = `{"error":"overloaded"}`
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Length", strconv.Itoa(len(shed)))
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, shed)
			rc.Flush()
			select {
			case <-read:
			case <-time.After(5 * time.Second):
			}
			return
		}
		raw, _ := io.ReadAll(r.Body)
		retried <- raw
		close(read)
		writeJSON(w, http.StatusOK, AppendResult{})
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Retry = testPolicy(2)
	if _, err := c.AppendRows(context.Background(), "d", "k1", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if got := <-retried; !bytes.Equal(got, data) {
		t.Errorf("the retry sent %d bytes, want the %d-byte body whole", len(got), len(data))
	}
}

// TestClientBodiesCarryLength: a JSON body and a seekable caller body
// go out with a Content-Length equal to the bytes sent — the seekable
// one's counted from its offset at the call and, for Fit, framed — and
// only a body that cannot seek goes out chunked.
func TestClientBodiesCarryLength(t *testing.T) {
	type seen struct {
		length int64
		n      int
		te     []string
	}
	var mu sync.Mutex
	got := map[string]seen{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		mu.Lock()
		got[r.URL.Path] = seen{r.ContentLength, len(raw), r.TransferEncoding}
		mu.Unlock()
		status := http.StatusOK
		if r.URL.Path == "/fit" {
			status = http.StatusCreated
		}
		writeJSON(w, status, map[string]any{})
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	if _, err := c.Marginal(ctx, "m", []string{"a"}, 0); err != nil {
		t.Fatal(err)
	}
	rows := bytes.NewReader([]byte(headedRows))
	rows.Seek(7, io.SeekStart)
	if _, err := c.AppendRows(ctx, "seek", "", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fit(ctx, FitRequest{DatasetID: "d", Epsilon: 1, Data: bytes.NewReader([]byte("a\nx\n"))}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendRows(ctx, "pipe", "", io.MultiReader(strings.NewReader(headedRows))); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/models/m/marginal", "/datasets/seek/rows", "/fit"} {
		if s := got[path]; s.length != int64(s.n) || s.n == 0 || len(s.te) != 0 {
			t.Errorf("%s: Content-Length %d, %d bytes, Transfer-Encoding %v; want the length, unchunked", path, s.length, s.n, s.te)
		}
	}
	if s := got["/datasets/seek/rows"]; s.n != len(headedRows)-7 {
		t.Errorf("seekable rows sent %d bytes, want %d", s.n, len(headedRows)-7)
	}
	if s := got["/datasets/pipe/rows"]; s.length != -1 || s.n != len(headedRows) {
		t.Errorf("non-seekable rows: Content-Length %d, %d bytes; want -1 (chunked), %d", s.length, s.n, len(headedRows))
	}
}

// TestClientBodiesFollowRedirects: with retries off, net/http itself
// resends a JSON body and a seekable caller body through a 307, so
// both calls land on the redirect target with the bytes they sent.
func TestClientBodiesFollowRedirects(t *testing.T) {
	var mu sync.Mutex
	bodies := map[string]string{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if moved, ok := strings.CutPrefix(r.URL.Path, "/models/old/"); ok {
			http.Redirect(w, r, "/models/new/"+moved, http.StatusTemporaryRedirect)
			return
		}
		if r.URL.Path == "/datasets/old/rows" {
			http.Redirect(w, r, "/datasets/new/rows", http.StatusTemporaryRedirect)
			return
		}
		raw, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies[r.URL.Path] = string(raw)
		mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{})
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	if _, err := c.Marginal(ctx, "old", []string{"a"}, 0); err != nil {
		t.Fatalf("marginal through a 307: %v", err)
	}
	rows := bytes.NewReader([]byte(headedRows))
	rows.Seek(7, io.SeekStart)
	if _, err := c.AppendRows(ctx, "old", "", rows); err != nil {
		t.Fatalf("append through a 307: %v", err)
	}
	if b := bodies["/models/new/marginal"]; !strings.Contains(b, `"attrs":["a"]`) {
		t.Errorf("redirected marginal body = %q", b)
	}
	if b := bodies["/datasets/new/rows"]; b != headedRows[7:] {
		t.Errorf("redirected rows body = %q, want %q", b, headedRows[7:])
	}
}

// TestClientDoesNotWaitOnAPipeBody: when the server answers without
// reading a body that cannot seek, the call returns at once; it does
// not wait on a read of the caller's pipe that may never return.
func TestClientDoesNotWaitOnAPipeBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Full duplex: answer without first draining the body.
		http.NewResponseController(w).EnableFullDuplex()
		writeError(w, http.StatusNotFound, "no such dataset")
	}))
	defer ts.Close()
	pr, pw := io.Pipe()
	defer pw.Close()
	done := make(chan error, 1)
	go func() {
		_, err := NewClient(ts.URL).AppendRows(context.Background(), "d", "", pr)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "404") {
			t.Errorf("append with an idle pipe body: %v, want the 404", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AppendRows still waiting on a pipe body the server never read")
	}
}

// TestBackoffHonorsRetryAfterAndCap: server hints win over the
// schedule; the cap bounds everything.
func TestBackoffHonorsRetryAfterAndCap(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	if d := p.backoff(0, "2"); d != 50*time.Millisecond {
		t.Errorf("Retry-After 2s under a 50ms cap: %v", d)
	}
	if d := p.backoff(0, "0"); d != 0 {
		t.Errorf("Retry-After 0: %v", d)
	}
	for attempt := 0; attempt < 20; attempt++ {
		d := p.backoff(attempt, "")
		if d > p.MaxDelay {
			t.Fatalf("attempt %d backoff %v exceeds cap %v", attempt, d, p.MaxDelay)
		}
		if d < p.BaseDelay/2 {
			t.Fatalf("attempt %d backoff %v below base/2", attempt, d)
		}
	}
}
