package main

// The serve-mixed workload: a real privbayesd child process driven over
// loopback by one closed-loop client, with client retries disabled.
// Each cycle runs the analyst's requests, one calibration kernel in
// the benchmark process, then the curator's:
//
//   - analyst: one 100 000-row CSV synthesis stream, then four exact
//     queries, against an Adult-like general-mode model fitted at the
//     paper's n = 45 222 and registered during set-up. Every fourth
//     stream reuses one fixed seed, and those streams must be
//     byte-identical.
//   - curator: one POST /fit of 20 000 Adult-like rows at ε = 0.1 with
//     parallelism 1 and a fresh Idempotency-Key, then five 1 000-row
//     JSONL appends to a curated dataset. The daemon refits the curated
//     dataset every 5 000 rows, so each cycle triggers one background
//     refit, which runs beside the next cycle's stream.
//
// One client rather than one per role: with two, a request's latency
// depended on which of the other client's requests it overlapped, and
// that alignment changed from run to run far more than the program did.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"privbayes"
	"privbayes/internal/core"
	"privbayes/internal/curator"
	"privbayes/internal/dataset"
	"privbayes/internal/server"
)

const (
	adultRows    = 45222 // the paper's Adult cardinality
	fitRows      = 20000
	fitEpsilon   = 0.1
	refitEpsilon = 0.1
	refitRows    = batches * batchRows
	fixedEvery   = 4 // every fourth stream uses the fixed seed
	serveWorkers = 2 // the daemon's -max-workers: one per core

	analystModel = "analyst"
	fitDataset   = "uploads"
	curated      = "stream"
)

// adultQueries are the analyst's four exact queries.
var adultQueries = []server.QueryRequest{
	{Kind: "marginal", Attrs: []core.AttrRef{{Name: "age"}, {Name: "salary"}}},
	{Kind: "marginal", Attrs: []core.AttrRef{{Name: "education"}, {Name: "occupation"}}},
	{Kind: "marginal", Attrs: []core.AttrRef{{Name: "sex"}, {Name: "race"}, {Name: "salary"}}},
	{Kind: "conditional", Attrs: []core.AttrRef{{Name: "salary"}}, Where: []core.Predicate{core.Eq("education", "Bachelors")}},
}

// serveInputs are the generated inputs of serve-mixed.
type serveInputs struct {
	attrs   []dataset.Attribute
	model   []byte   // SaveModel artifact of the analyst's model
	fitCSV  []byte   // the curator's /fit upload
	batches [][]byte // JSONL append batches
}

func (b *bench) serveInputs() (*serveInputs, error) {
	parts := generate("Adult", b.seed, adultRows, fitRows, refitRows)
	in := &serveInputs{attrs: parts[0].Attrs()}
	m, err := privbayes.Fit(context.Background(), parts[0],
		privbayes.WithEpsilon(epsilon), privbayes.WithParallelism(parallelism), privbayes.WithSeed(modelSeed))
	if err != nil {
		return nil, err
	}
	var model, upload bytes.Buffer
	if err := privbayes.SaveModel(&model, m, epsilon); err != nil {
		return nil, err
	}
	if err := parts[1].WriteCSV(&upload); err != nil {
		return nil, err
	}
	in.model, in.fitCSV = model.Bytes(), upload.Bytes()
	in.batches, err = jsonlBatches(parts[2])
	return in, err
}

// daemon is a running privbayesd child process.
type daemon struct {
	proc   *os.Process
	pid    string
	exited chan error
	client *server.Client
}

var listenRE = regexp.MustCompile(`listening on ([0-9.]+:[0-9]+)`)

// startDaemon starts privbayesd on a fresh state directory and waits
// until it reports its address.
func (b *bench) startDaemon(dir string) (*daemon, error) {
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "daemon.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(b.daemon,
		"-addr", "127.0.0.1:0",
		"-models-dir", filepath.Join(dir, "models"),
		"-ledger", filepath.Join(dir, "ledger.wal"),
		"-curator-dir", filepath.Join(dir, "curator"),
		"-refit-epsilon", strconv.FormatFloat(refitEpsilon, 'g', -1, 64),
		"-refit-rows", strconv.Itoa(refitRows),
		"-budget", "1000000",
		"-max-workers", strconv.Itoa(serveWorkers),
	)
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp) // upload spools stay in the state directory
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark even when the benchmark is
	// killed and cannot stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{proc: cmd.Process, pid: strconv.Itoa(cmd.Process.Pid), exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	for start := time.Now(); time.Since(start) < 60*time.Second; time.Sleep(10 * time.Millisecond) {
		raw, _ := os.ReadFile(logPath)
		if m := listenRE.FindSubmatch(raw); m != nil {
			d.client = server.NewClient("http://" + string(m[1]))
			return d, nil
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			return nil, fmt.Errorf("privbayesd exited during start-up (%v): %s", err, raw)
		default:
		}
	}
	d.stop()
	return nil, errors.New("privbayesd did not report its address within 60s")
}

// stop shuts the daemon down gracefully and waits until it has exited,
// killing it if the drain takes too long. The exit status goes back
// into the channel, so a second stop returns at once.
func (d *daemon) stop() {
	d.proc.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exited:
		d.exited <- err
	case <-time.After(20 * time.Second):
		d.proc.Kill()
		d.exited <- <-d.exited
	}
}

// setupDaemon is one set-up repetition: generate the inputs, start a
// daemon on a fresh state directory, register the analyst's model and
// create the curated dataset.
func (b *bench) setupDaemon(rep int) (*daemon, *serveInputs, error) {
	in, err := b.serveInputs()
	if err != nil {
		return nil, nil, err
	}
	d, err := b.startDaemon(filepath.Join(b.dir, fmt.Sprintf("daemon-%d", rep)))
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	if _, err := d.client.Upload(ctx, analystModel, bytes.NewReader(in.model)); err != nil {
		d.stop()
		return nil, nil, fmt.Errorf("register model: %w", err)
	}
	if _, err := d.client.CreateDataset(ctx, curated, server.SpecsFromAttrs(in.attrs)); err != nil {
		d.stop()
		return nil, nil, fmt.Errorf("create curated dataset: %w", err)
	}
	return d, in, nil
}

func (b *bench) runServe() error {
	var d *daemon
	var in *serveInputs
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		nd, nin, err := b.setupDaemon(rep)
		if err != nil {
			if d != nil {
				d.stop()
			}
			return err
		}
		b.setup = append(b.setup, time.Since(t0).Seconds())
		if d != nil {
			d.stop()
		}
		d, in = nd, nin
	}
	defer d.stop()
	b.prov["rows"] = map[string]int{"analyst_model_fit": adultRows, "fit_upload": fitRows, "append_batch": batchRows, "synthesis_stream": synthRows}
	b.prov["csv_bytes"] = len(in.fitCSV)
	b.prov["measured_process"] = "privbayesd for peak_rss_mb (its VmHWM); latencies are client-side"

	ctx := context.Background()
	var tr *serveTrace
	if b.traced {
		var err error
		if tr, err = startServeTrace(ctx, d.client); err != nil {
			return err
		}
	}
	b.rss = &rssPeaks{pid: d.pid}
	if err := b.rss.start(); err != nil {
		return fmt.Errorf("reset daemon peak RSS: %w", err)
	}

	cl := &serveClient{b: b, c: d.client, in: in, streamsOK: true, fixedOK: true, queriesOK: true}
	start := time.Now()
	for cycle := int64(0); time.Since(start) < b.window; cycle++ {
		b.rss.start()
		cl.analyst(ctx, cycle)
		// Between the roles the daemon is idle: the refit the last
		// cycle's appends started has landed during the stream, and the
		// stream's garbage has been collected during the queries.
		b.calibrate()
		cl.curator(ctx, cycle)
		b.rss.end()
	}
	b.rec.window = time.Since(start).Seconds()
	if tr != nil {
		tr.stopSampling()
	}

	// Correctness, after the window: let the last refit land first.
	st, err := waitRefits(ctx, d.client)
	if err != nil {
		return err
	}
	snap, err := scrape(ctx, d.client)
	if err != nil {
		return err
	}
	b.expect("synth-streams", cl.streamsOK, "every stream is a header plus %d rows that decode under the schema", synthRows)
	b.expect("synth-fixed-seed", cl.fixedOK && cl.fixedSeen > 1, "%d fixed-seed streams byte-identical", cl.fixedSeen)
	b.expect("query-sums", cl.queriesOK, "every query distribution sums to 1")
	budget, err := d.client.Budget(ctx)
	if err != nil {
		return err
	}
	refits := int(snap.sum("privbayes_curator_refits_total", `outcome="published"`))
	b.expect("budget-fits", budget[fitDataset].Spent == epsSum(fitEpsilon, cl.fits),
		"%s spent %v, acknowledged fits %d × %v", fitDataset, budget[fitDataset].Spent, cl.fits, fitEpsilon)
	b.expect("budget-refits", refits > 0 && budget[curated].Spent == epsSum(refitEpsilon, refits),
		"%s spent %v, published refits %d × %v", curated, budget[curated].Spent, refits, refitEpsilon)
	b.expect("curated-rows", st.Rows == int64(cl.appended), "dataset rows %d, acknowledged %d", st.Rows, cl.appended)
	b.prov["refits"] = refits
	if tr != nil {
		tr.report(b, snap)
	}
	return nil
}

// epsSum is the ledger's running total after n charges of eps each,
// accumulated in the order the ledger adds them.
func epsSum(eps float64, n int) float64 {
	var s float64
	for i := 0; i < n; i++ {
		s += eps
	}
	return s
}

// waitRefits waits until the curated dataset has no refit in flight.
func waitRefits(ctx context.Context, c *server.Client) (curator.Status, error) {
	for start := time.Now(); time.Since(start) < 60*time.Second; time.Sleep(50 * time.Millisecond) {
		st, err := c.DatasetStatus(ctx, curated)
		if err != nil || !st.Refitting {
			return st, err
		}
	}
	return curator.Status{}, errors.New("curated dataset still refitting 60s after the window")
}

// serveClient is the closed-loop client and what it observed.
type serveClient struct {
	b   *bench
	c   *server.Client
	in  *serveInputs
	buf bytes.Buffer

	streamsOK bool
	fixedOK   bool
	fixedSeen int
	fixedHash [32]byte
	queriesOK bool
	fits      int
	appended  int
}

// analyst streams once, then asks the four queries.
func (s *serveClient) analyst(ctx context.Context, cycle int64) {
	seed := s.b.seed*1_000_000 + cycle
	fixed := cycle%fixedEvery == 0
	if fixed {
		seed = s.b.seed
	}
	if s.b.rec.do("synth", func() error {
		s.buf.Reset()
		st, err := s.c.Synthesize(ctx, analystModel, server.SynthesizeRequest{N: synthRows, Seed: &seed})
		if err != nil {
			return err
		}
		defer st.Close()
		_, err = io.Copy(&s.buf, st.Body)
		return err
	}) == nil {
		s.b.rec.addSynthRows(synthRows)
		s.checkStream(s.buf.Bytes(), fixed)
	}
	// One sample is the turn's mean time per query. The four queries'
	// costs differ by an order of magnitude, so the median of single
	// queries would sit on the boundary between two of them and jump
	// from one to the other between runs.
	s.b.rec.doBatch("query", len(adultQueries), func() error {
		for _, q := range adultQueries {
			res, err := s.c.Query(ctx, analystModel, q)
			if err != nil {
				return err
			}
			s.queriesOK = s.queriesOK && sumsToOne(res.P)
		}
		return nil
	})
}

func (s *serveClient) checkStream(raw []byte, fixed bool) {
	ds, err := dataset.ReadCSV(bytes.NewReader(raw), s.in.attrs)
	if err != nil || ds.N() != synthRows {
		s.streamsOK = false
		return
	}
	if fixed {
		h := sha256.Sum256(raw)
		if s.fixedSeen > 0 && h != s.fixedHash {
			s.fixedOK = false
		}
		s.fixedHash = h
		s.fixedSeen++
	}
}

// curator fits once, then appends the five batches.
func (s *serveClient) curator(ctx context.Context, cycle int64) {
	seed := modelSeed*1_000_000 + cycle
	schema := server.SpecsFromAttrs(s.in.attrs)
	if s.b.rec.do("fit", func() error {
		_, err := s.c.Fit(ctx, server.FitRequest{
			DatasetID: fitDataset, Epsilon: fitEpsilon, Seed: &seed, Parallelism: 1,
			Schema: schema, Data: bytes.NewReader(s.in.fitCSV),
			IdempotencyKey: fmt.Sprintf("fit-%d-%d", s.b.seed, cycle),
		})
		return err
	}) == nil {
		s.fits++
	}
	for j, batch := range s.in.batches {
		key := fmt.Sprintf("rows-%d-%d-%d", s.b.seed, cycle, j)
		if s.b.rec.do("append", func() error {
			res, err := s.c.AppendRows(ctx, curated, key, bytes.NewReader(batch))
			if err == nil && (res.Duplicate || res.Rows != batchRows) {
				err = fmt.Errorf("append %s: rows %d, duplicate %v", key, res.Rows, res.Duplicate)
			}
			return err
		}) == nil {
			s.appended += batchRows
		}
	}
}
