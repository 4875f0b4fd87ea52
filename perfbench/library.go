package main

// The library workloads: fit-binary drives privbayes.Fit over rows held
// in memory, fit-outofcore drives privbayes.FitScanner over the same
// rows spooled to a CSV file. Both run one closed-loop caller whose
// cycle is one fit, then five rounds of {one 100 000-row synthesis
// stream, one calibration kernel, exact queries, five 1 000-row appends
// to an in-process curated dataset, a second calibration kernel}, so every end-to-end metric has samples on every
// workload. The fit is timed on its own. The rounds take about 2 s
// because this host's speed drifts from second to second: operations
// bunched into a few milliseconds per cycle would sample the host's
// state a handful of times per run, and their medians would move from
// run to run with it. Each round queries, besides two 2-way marginals,
// one 3-way marginal and one conditional, every 2-way marginal of the
// schema, so the query figures cover the whole learned network. A
// query is 0.1 ms, too short to time alone on this host, so one sample
// is a whole round's time per query: the query median is the median
// round.
// No round starts once the window has closed.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"privbayes"
	"privbayes/internal/core"
	"privbayes/internal/curator"
	"privbayes/internal/data"
	"privbayes/internal/dataset"
)

const (
	acsRows = 100000
	rounds  = 5 // read/write rounds after each fit

	// librarySetupReps is the library workloads' set-up count per run.
	// A set-up here takes a tenth of a second, so the median of more
	// of them is cheap and steadies setup_s.
	librarySetupReps = 11
)

// generate draws one fixed sample of each size from the named
// internal/data ground truth, then shuffles each sample's rows with the
// workload seed. The same seed gives the same rows in the same order.
// Every seed gives the same rows as a multiset, so the network a fit
// learns, which sets the cost of fitting, sampling and querying, is the
// same for every seed: runs with different seeds differ in the order
// the rows arrive in, not in a network shape the seed happened to draw.
func generate(name string, seed int64, sizes ...int) []*dataset.Dataset {
	spec, ok := data.ByName(name)
	if !ok {
		panic("perfbench: unknown dataset " + name)
	}
	gt := data.NewGroundTruth(spec.Attrs(), 2, spec.Alpha, rand.New(rand.NewSource(spec.Seed)))
	draw := rand.New(rand.NewSource(spec.Seed + 1))
	shuffle := rand.New(rand.NewSource(seed))
	out := make([]*dataset.Dataset, len(sizes))
	for i, n := range sizes {
		out[i] = gt.Sample(n, draw).Subset(shuffle.Perm(n))
	}
	return out
}

// jsonlBatches renders pool as batchRows-row JSONL batches, the wire
// form of an append.
func jsonlBatches(pool *dataset.Dataset) ([][]byte, error) {
	var out [][]byte
	for lo := 0; lo+batchRows <= pool.N(); lo += batchRows {
		var buf bytes.Buffer
		if err := dataset.NewJSONLWriter(&buf, pool.Attrs()).WriteRows(pool, lo, lo+batchRows); err != nil {
			return nil, err
		}
		out = append(out, buf.Bytes())
	}
	return out, nil
}

// appendJSONL is an in-process append: decode one JSONL batch and
// ingest it durably into the curated dataset, as the daemon's
// POST /datasets/{id}/rows does without the HTTP around it. Decoding
// is part of the operation so that the fsync, whose latency on a
// shared host jumps from run to run, is not all of it.
func appendJSONL(cur *curator.Curator, attrs []dataset.Attribute, key string, batch []byte) error {
	rows, err := dataset.ScanJSONL(bytes.NewReader(batch), attrs, batchRows).Next()
	if err != nil {
		return err
	}
	dup, err := cur.Append("appends", key, rows)
	if err == nil && dup {
		err = fmt.Errorf("append %s reported as a duplicate", key)
	}
	return err
}

// libraryQueries are the library workloads' exact queries: two 2-way
// marginals, one 3-way marginal and one conditional, then every 2-way
// marginal of the schema.
func libraryQueries(attrs []dataset.Attribute) []core.Query {
	qs := []core.Query{
		core.Marginal("dwelling", "mortgage"),
		core.Marginal("sex", "employed"),
		core.Marginal("married", "veteran", "disability"),
		core.Conditional([]string{"employed"}, core.Eq("sex", "yes")),
	}
	for i := range attrs {
		for j := i + 1; j < len(attrs); j++ {
			qs = append(qs, core.Marginal(attrs[i].Name, attrs[j].Name))
		}
	}
	return qs
}

func fitOptions(seed int64) []privbayes.Option {
	return []privbayes.Option{
		privbayes.WithEpsilon(epsilon), privbayes.WithDegree(degree),
		privbayes.WithParallelism(parallelism), privbayes.WithSeed(seed),
	}
}

func (b *bench) runLibrary(outOfCore bool) error {
	ctx := context.Background()
	csvPath := filepath.Join(b.dir, "acs.csv")
	var ds, pool *dataset.Dataset
	var csvBytes int64
	for i := 0; i < librarySetupReps; i++ {
		t0 := time.Now()
		parts := generate("ACS", b.seed, acsRows, batches*batchRows)
		ds, pool = parts[0], parts[1]
		if outOfCore {
			n, err := writeCSV(csvPath, ds)
			if err != nil {
				return err
			}
			csvBytes = n
		}
		b.setup = append(b.setup, time.Since(t0).Seconds())
	}
	attrs := ds.Attrs()
	src := privbayes.CSVSource(csvPath, attrs, 0)
	b.prov["rows"] = ds.N()
	b.prov["attributes"] = len(attrs)
	b.prov["csv_bytes"] = csvBytes
	b.prov["measured_process"] = "benchmark (library calls in-process)"
	if outOfCore {
		ds = nil // the rows stay on disk; only the fit's own memory is resident
	}

	cur, err := curator.New(curator.Config{Dir: filepath.Join(b.dir, "curator")})
	if err != nil {
		return err
	}
	defer cur.Close()
	if err := cur.Create("appends", attrs); err != nil {
		return err
	}
	bs, err := jsonlBatches(pool)
	if err != nil {
		return err
	}
	queries := libraryQueries(attrs)

	var tr *libTrace
	if b.traced {
		tr = newLibTrace()
	}
	fit := func(seed int64) (*privbayes.Model, error) {
		switch {
		case tr != nil && outOfCore:
			return tr.fitScanner(ctx, src, seed)
		case tr != nil:
			return tr.fit(ctx, ds, seed)
		case outOfCore:
			return privbayes.FitScanner(ctx, src, fitOptions(seed)...)
		default:
			return privbayes.Fit(ctx, ds, fitOptions(seed)...)
		}
	}

	runtime.GC()
	debug.FreeOSMemory()
	b.rss = &rssPeaks{pid: "self"}
	if err := b.rss.start(); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	var (
		last     *privbayes.Model
		lastSeed int64
		appended int
		synthOK  = true
		queryOK  = true
	)
	start := time.Now()
	deadline := start.Add(b.window)
	for cycle := int64(0); time.Now().Before(deadline); cycle++ {
		seed := modelSeed*1_000_000 + cycle
		b.rss.start()
		var m *privbayes.Model
		if b.rec.do("fit", func() (err error) { m, err = fit(seed); return err }) != nil {
			continue
		}
		last, lastSeed = m, seed
		runtime.GC() // the fit's garbage is not charged to the operations after it

		for round := int64(0); round < rounds && time.Now().Before(deadline); round++ {
			lc := &lineCounter{}
			opts := []privbayes.SynthOption{privbayes.SynthSeed(seed + round), privbayes.SynthParallelism(parallelism)}
			if tr != nil {
				opts = append(opts, privbayes.SynthProgress(tr.sampling.observe))
			}
			if b.rec.do("synth", func() error {
				return m.SynthesizeTo(ctx, lc, synthRows, privbayes.FormatCSV, opts...)
			}) == nil {
				b.rec.addSynthRows(synthRows)
				synthOK = synthOK && lc.lines == synthRows+1
			}
			// The stream's garbage is collected here, so the queries and
			// appends after it are not charged for it.
			b.calibrate()

			b.rec.doBatch("query", len(queries), func() error {
				for _, q := range queries {
					qopts := []core.QueryOption{core.QueryParallelism(parallelism)}
					if tr != nil {
						qopts = append(qopts, tr.queryStats())
					}
					res, err := m.Query(ctx, q, qopts...)
					if err != nil {
						return err
					}
					queryOK = queryOK && sumsToOne(res.P)
				}
				return nil
			})

			for j, batch := range bs {
				key := fmt.Sprintf("c%d-r%d-b%d", cycle, round, j)
				if b.rec.do("append", func() error { return appendJSONL(cur, attrs, key, batch) }) == nil {
					appended += batchRows
				}
			}
			// A second kernel per round: the yardstick's own median
			// steadies with the number of moments it samples.
			b.calibrate()
		}
		b.rss.end()
	}
	b.rec.window = time.Since(start).Seconds()
	if last == nil {
		return fmt.Errorf("no fit completed within the window")
	}

	// Correctness, outside the measured window.
	b.expect("synth-rows", synthOK, "every stream is a header plus %d rows", synthRows)
	b.expect("query-sums", queryOK, "every query distribution sums to 1")
	st, err := cur.Status("appends")
	b.expect("append-rows", err == nil && st.Rows == int64(appended), "curated rows %d, acknowledged %d (%v)", st.Rows, appended, err)
	b.checkModel(last)
	if outOfCore {
		f, err := os.Open(csvPath)
		if err != nil {
			return err
		}
		mem, err := dataset.ReadCSV(f, attrs)
		f.Close()
		if err != nil {
			return err
		}
		b.expectSameModel("outofcore-equals-inmemory", last, mem, lastSeed)
	} else {
		b.checkFidelity(last, ds)
	}
	if tr != nil {
		tr.report(b, outOfCore, csvBytes)
		// The traced fit calls the layers directly; it must reproduce the
		// facade's model byte for byte, or the trace measured another fit.
		if !outOfCore {
			b.expectSameModel("traced-equals-facade", last, ds, lastSeed)
		}
	}
	return nil
}

// checkModel validates a library model and the ε its artifact records.
// The ε₁/ε₂ split happens inside the fit and is not observable from
// outside; the released artifact's total is.
func (b *bench) checkModel(m *privbayes.Model) {
	err := m.Validate()
	b.expect("model-valid", err == nil, "Validate: %v", err)
	var buf bytes.Buffer
	if err := privbayes.SaveModel(&buf, m, epsilon); err != nil {
		b.expect("model-epsilon", false, "SaveModel: %v", err)
		return
	}
	_, eps, err := privbayes.LoadModel(&buf)
	b.expect("model-epsilon", err == nil && eps == epsilon, "artifact ε %v, want %v (%v)", eps, epsilon, err)
}

// expectSameModel checks that got is byte-identical to an in-memory
// facade Fit of rows with the same seed.
func (b *bench) expectSameModel(name string, got *privbayes.Model, rows *dataset.Dataset, seed int64) {
	want, err := privbayes.Fit(context.Background(), rows, fitOptions(seed)...)
	if err != nil {
		b.expect(name, false, "reference Fit: %v", err)
		return
	}
	var gb, wb bytes.Buffer
	e1 := privbayes.SaveModel(&gb, got, epsilon)
	e2 := privbayes.SaveModel(&wb, want, epsilon)
	b.expect(name, e1 == nil && e2 == nil && bytes.Equal(gb.Bytes(), wb.Bytes()),
		"SaveModel bytes %d vs %d, equal=%v", gb.Len(), wb.Len(), bytes.Equal(gb.Bytes(), wb.Bytes()))
}

// checkFidelity bounds the mean exact 2-way TVD between the model and
// the rows it was fitted on, over every attribute pair.
func (b *bench) checkFidelity(m *privbayes.Model, ds *dataset.Dataset) {
	d, n := ds.D(), float64(ds.N())
	var total float64
	pairs := 0
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			res, err := m.Query(context.Background(), core.Marginal(ds.Attr(i).Name, ds.Attr(j).Name))
			if err != nil {
				b.expect("fidelity", false, "query: %v", err)
				return
			}
			sj := ds.Attr(j).Size()
			emp := make([]float64, len(res.P))
			ci, cj := ds.ColumnCodes(i), ds.ColumnCodes(j)
			for r := range ci {
				emp[int(ci[r])*sj+int(cj[r])]++
			}
			var tvd float64
			for c, p := range res.P {
				tvd += math.Abs(p - emp[c]/n)
			}
			total += tvd / 2
			pairs++
		}
	}
	tvd := total / float64(pairs)
	b.prov["mean_2way_tvd"] = tvd
	b.expect("fidelity", tvd < fidelityBound, "mean exact 2-way TVD %.5f over %d pairs, bound %g", tvd, pairs, fidelityBound)
}

func sumsToOne(p []float64) bool {
	var s float64
	for _, v := range p {
		s += v
	}
	return math.Abs(s-1) < 1e-9
}

func writeCSV(path string, ds *dataset.Dataset) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := ds.WriteCSV(f); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// lineCounter is the synthesis sink: it counts rows without keeping
// them.
type lineCounter struct{ lines int }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}
