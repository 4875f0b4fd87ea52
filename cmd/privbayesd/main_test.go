// End-to-end test of the real privbayesd binary: build it, start it on
// a random port, and drive the full serving lifecycle over the wire —
// curator fit, 100k-row streaming synthesis read with bounded memory, a
// marginal query, and a privacy-budget rejection. CI runs this through
// `go test ./...` (and under -race via make race).
package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"privbayes/internal/cliutil"
	"privbayes/internal/dataset"
	"privbayes/internal/server"
)

// buildBinary compiles privbayesd into a temp dir once per test run.
func buildBinary(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "privbayesd")
	cmd := exec.Command(goTool, "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches the binary on a random port and returns its base
// URL once the listen line appears on stderr.
func startDaemon(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	listen := regexp.MustCompile(`listening on (\S+)`)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listen.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
			}
			// Drain so the daemon never blocks on a full stderr pipe.
		}
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not announce its listen address")
		return ""
	}
}

// curatorCSV builds the upload: a small correlated dataset.
func curatorCSV(t *testing.T, attrs []dataset.Attribute, n int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	ds := dataset.NewWithCapacity(attrs, n)
	rec := make([]uint16, len(attrs))
	for i := 0; i < n; i++ {
		rec[0] = uint16(rng.Intn(3))
		rec[1] = uint16(rng.Intn(8))
		if rec[1] > 3 {
			rec[2] = 1
		} else {
			rec[2] = uint16(rng.Intn(2))
		}
		ds.Append(rec)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPrivbayesdEndToEnd(t *testing.T) {
	bin := buildBinary(t)
	work := t.TempDir()
	base := startDaemon(t, bin,
		"-models-dir", filepath.Join(work, "models"),
		"-ledger", filepath.Join(work, "ledger.wal"),
		"-budget", "1.0",
	)
	c := server.NewClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}

	attrs := []dataset.Attribute{
		dataset.NewCategorical("color", []string{"red", "green", "blue"}),
		dataset.NewContinuous("age", 0, 80, 8),
		dataset.NewCategorical("employed", []string{"no", "yes"}),
	}
	raw := curatorCSV(t, attrs, 3000)
	seed := int64(17)

	// Curator fit under the dataset's ε budget.
	meta, err := c.Fit(ctx, server.FitRequest{
		DatasetID: "survey", Epsilon: 0.7, ModelID: "survey-v1", Seed: &seed,
		Schema: server.SpecsFromAttrs(attrs), Data: bytes.NewReader(raw),
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != "survey-v1" || len(meta.Attrs) != 3 {
		t.Fatalf("fit meta = %+v", meta)
	}

	// Stream 100k synthetic rows; count them line by line so the test
	// itself holds only one row at a time — mirroring how a real client
	// consumes the bounded-memory stream.
	const wantRows = 100_000
	stream, err := c.Synthesize(ctx, "survey-v1", server.SynthesizeRequest{N: wantRows, Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stream.Body)
	if !sc.Scan() {
		t.Fatal("empty synthesis stream")
	}
	if got := sc.Text(); got != "color,age,employed" {
		t.Fatalf("header = %q", got)
	}
	rows := 0
	for sc.Scan() {
		line := sc.Text()
		if rows == 0 && strings.Count(line, ",") != 2 {
			t.Fatalf("first row %q does not match schema", line)
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	stream.Close()
	if rows != wantRows {
		t.Fatalf("streamed %d rows, want %d", rows, wantRows)
	}

	// Marginal inference over the wire.
	marg, err := c.Marginal(ctx, "survey-v1", []string{"age", "employed"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(marg.P) != 16 {
		t.Fatalf("marginal has %d cells, want 16", len(marg.P))
	}
	var sum float64
	for _, p := range marg.P {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("marginal sums to %g", sum)
	}

	// A second fit on the same dataset would take the ledger to 1.4 >
	// 1.0: the daemon must refuse it and leave the ledger untouched.
	_, err = c.Fit(ctx, server.FitRequest{
		DatasetID: "survey", Epsilon: 0.7,
		Schema: server.SpecsFromAttrs(attrs), Data: bytes.NewReader(raw),
	})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("over-budget fit: %v", err)
	}
	budget, err := c.Budget(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if e := budget["survey"]; math.Abs(e.Spent-0.7) > 1e-12 || e.Budget != 1.0 {
		t.Errorf("ledger after rejection = %+v", e)
	}
}

// TestPrivbayesdRestartKeepsLedgerAndModels restarts the daemon over
// the same models dir + ledger file: the fitted model must still serve
// and the ε spend must still bind.
func TestPrivbayesdRestartKeepsLedgerAndModels(t *testing.T) {
	bin := buildBinary(t)
	work := t.TempDir()
	modelsDir := filepath.Join(work, "models")
	ledgerPath := filepath.Join(work, "ledger.wal")
	args := []string{"-models-dir", modelsDir, "-ledger", ledgerPath, "-budget", "1.0"}

	attrs := []dataset.Attribute{
		dataset.NewCategorical("flag", []string{"no", "yes"}),
		dataset.NewContinuous("x", 0, 1, 4),
	}
	raw := curatorCSV2(t, attrs, 1500)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	base := startDaemon(t, bin, args...)
	c := server.NewClient(base)
	seed := int64(2)
	if _, err := c.Fit(ctx, server.FitRequest{
		DatasetID: "d", Epsilon: 0.8, ModelID: "d-v1", Seed: &seed,
		Schema: server.SpecsFromAttrs(attrs), Data: bytes.NewReader(raw),
	}); err != nil {
		t.Fatal(err)
	}

	base2 := startDaemon(t, bin, args...)
	c2 := server.NewClient(base2)
	models, err := c2.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].ID != "d-v1" {
		t.Fatalf("restarted daemon models = %+v", models)
	}
	stream, err := c2.Synthesize(ctx, "d-v1", server.SynthesizeRequest{N: 100, Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, stream.Body)
	stream.Close()
	// 0.8 already spent: another 0.8 must be refused by the reloaded ledger.
	if _, err := c2.Fit(ctx, server.FitRequest{
		DatasetID: "d", Epsilon: 0.8,
		Schema: server.SpecsFromAttrs(attrs), Data: bytes.NewReader(raw),
	}); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("restarted ledger did not bind: %v", err)
	}
}

// curatorCSV2 is curatorCSV for a two-attribute schema.
func curatorCSV2(t *testing.T, attrs []dataset.Attribute, n int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	ds := dataset.NewWithCapacity(attrs, n)
	rec := make([]uint16, 2)
	for i := 0; i < n; i++ {
		rec[0] = uint16(rng.Intn(2))
		rec[1] = uint16(rng.Intn(4))
		ds.Append(rec)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPrivbayesdRefusesPreWALLedger: a ledger written as one JSON
// document, as releases before the WAL wrote it, is not converted; the
// daemon exits non-zero on it, -ledger-fsck included, and leaves it as
// it was.
func TestPrivbayesdRefusesPreWALLedger(t *testing.T) {
	bin := buildBinary(t)
	work := t.TempDir()
	ledgerPath := filepath.Join(work, "ledger.json")
	doc := []byte(`{"version":1,"default_budget":2,"datasets":{"survey":{"spent":0.7,"budget":2}}}`)
	if err := os.WriteFile(ledgerPath, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, fsck := range []bool{false, true} {
		args := []string{"-addr", "127.0.0.1:0", "-models-dir", filepath.Join(work, "models"),
			"-ledger", ledgerPath, fmt.Sprintf("-ledger-fsck=%v", fsck)}
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 || !strings.Contains(string(out), "corrupt") {
			t.Errorf("fsck %v: err = %v, output %q; want a non-zero exit naming the corrupt ledger", fsck, err, out)
		}
		if got, err := os.ReadFile(ledgerPath); err != nil || !bytes.Equal(got, doc) {
			t.Errorf("fsck %v: refused ledger changed (err %v)", fsck, err)
		}
	}
}

func TestPrivbayesdVersionFlag(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-version").CombinedOutput()
	if err != nil {
		t.Fatalf("-version: %v\n%s", err, out)
	}
	want := fmt.Sprintf("privbayesd %s", cliutil.Version)
	if !strings.Contains(string(out), want) {
		t.Errorf("-version output %q missing %q", out, want)
	}
	if _, err := os.Stat(bin); err != nil {
		t.Fatal(err)
	}
}
