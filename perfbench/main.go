// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload for a fixed window, checks that the program's
// outputs are correct, and prints one JSON result line as the last line
// of standard output. With -trace 1 it runs the traced variant of the
// workload and reports per-layer metrics instead of end-to-end ones.
// See README.md in this directory for the workloads, the metric
// catalogue and how to compare two commits.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Workload parameters shared by the workloads and the
// correctness checks. They are part of the benchmark's definition:
// changing one changes what every metric means.
const (
	epsilon     = 1.0    // total ε of every library fit
	degree      = 3      // network degree k (auto-k picks 8 on the ACS schema, which is intractable)
	parallelism = 2      // fit, sampling and query workers
	synthRows   = 100000 // rows per synthesis stream
	batchRows   = 1000   // rows per append batch
	batches     = 5      // appends per library round and per curator cycle
	setupReps   = 3      // serve-mixed set-ups per run; setup_s is their median

	// modelSeed fixes the randomness of every fit (cycle i of a run
	// fits with seed modelSeed·10⁶+i, and the analyst's model with
	// modelSeed); the workload seed only shuffles the rows (see
	// generate). Fit and query cost depend on the learned network's
	// shape, and seed-dependent shapes would make runs differ by seed
	// far more than by code.
	modelSeed = 7

	// fidelityBound caps the mean exact 2-way TVD between a fit-binary
	// model and its input rows. Observed 0.0047-0.0133 over 30 seeds at
	// ε=1, n=100 000.
	fidelityBound = 0.025
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "fit-binary, fit-outofcore or serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&o.daemon, "daemon", "", "privbayesd binary (serve-mixed)")
	flag.StringVar(&o.work, "work", "", "scratch directory; emptied before and after the run")
	flag.StringVar(&o.commit, "commit", "unknown", "source commit, recorded in the provenance line")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	daemon   string
	work     string
	commit   string
}

func run(o options) error {
	if o.work == "" || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("usage: perfbench -work DIR --workload NAME --seed N --seconds S --trace 0|1")
	}
	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	calib, err := newCalibration()
	if err != nil {
		return err
	}
	defer calib.close()

	b := &bench{
		seed:   o.seed,
		window: time.Duration(o.seconds * float64(time.Second)),
		traced: o.trace == 1,
		dir:    dir,
		daemon: o.daemon,
		rec:    newRecorder(),
		calib:  calib,
		layers: map[string]float64{},
		prov: map[string]any{
			"workload":      o.workload,
			"seed":          o.seed,
			"seconds":       o.seconds,
			"traced":        o.trace == 1,
			"commit":        o.commit,
			"nproc":         runtime.NumCPU(),
			"gomaxprocs":    runtime.GOMAXPROCS(0),
			"cpu_model":     cpuModel(),
			"go_version":    runtime.Version(),
			"file_reads":    "served from the OS page cache: inputs are written just before they are read",
			"fsync_latency": "that of the filesystem the benchmark runs on, not of a raw device",
		},
	}
	switch o.workload {
	case "fit-binary":
		err = b.runLibrary(false)
	case "fit-outofcore":
		err = b.runLibrary(true)
	case "serve-mixed":
		err = b.runServe()
	default:
		return fmt.Errorf("unknown workload %q (want fit-binary, fit-outofcore or serve-mixed)", o.workload)
	}
	if err != nil {
		return err
	}
	return b.report()
}

// bench is the state of one run.
type bench struct {
	seed   int64
	window time.Duration
	traced bool
	dir    string
	daemon string

	rec    *recorder
	calib  *calibration
	setup  []float64 // seconds per set-up repetition
	rss    *rssPeaks
	checks []check
	prov   map[string]any
	layers map[string]float64 // per-layer metrics of a traced run; absent means zero
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// expect records one correctness check.
func (b *bench) expect(name string, ok bool, format string, args ...any) {
	b.checks = append(b.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %s\n", name, fmt.Sprintf(format, args...))
	}
}

// recorder times operations of a closed-loop run. Failed operations
// count as attempted, never as latency samples.
type recorder struct {
	mu        sync.Mutex
	samples   map[string][]float64 // op -> seconds
	attempted int
	failed    int
	completed int
	synthRows int64
	window    float64 // seconds from the first dispatch to the last completion
}

func newRecorder() *recorder { return &recorder{samples: map[string][]float64{}} }

func (r *recorder) do(op string, f func() error) error { return r.doBatch(op, 1, f) }

// doBatch times f, which performs n operations of kind op, and records
// one sample of the mean time per operation.
func (r *recorder) doBatch(op string, n int, f func() error) error {
	t0 := time.Now()
	err := f()
	d := time.Since(t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += n
	if err != nil {
		r.failed += n
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", op, err)
		return err
	}
	r.completed += n
	r.samples[op] = append(r.samples[op], d/float64(n))
	return nil
}

func (r *recorder) addSynthRows(n int) {
	r.mu.Lock()
	r.synthRows += int64(n)
	r.mu.Unlock()
}

// tail returns the highest whole percentile with at least ten samples
// beyond it (nearest rank), and that percentile. It is never below the
// median and never above p90: past p90, the sub-millisecond operations
// and fsyncs of one run measure the shared host's hiccups, which differ
// from run to run far more than the program does.
func tail(xs []float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := min(max(100*(n-10)/n, 50), 90)
	rank := (p*n + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if p == 50 {
		return median(s), p
	}
	return s[rank-1], p
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean is the mean of xs without its lowest and highest tenth
// (rounded down; nothing is dropped below ten samples). Over a run it
// moves less than the median: the mean uses every sample in the middle,
// and the trimmed tails are where the host's hiccups land.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 10
	return mean(s[k : len(s)-k])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// report prints the provenance line and the result line.
func (b *bench) report() error {
	r := b.rec
	correct := true
	for _, c := range b.checks {
		correct = correct && c.OK
	}
	extra := map[string]any{}
	metrics := map[string]metric{}
	if b.traced {
		for _, l := range layerCatalogue {
			metrics[l.name] = metric{b.layers[l.name], l.unit}
		}
	} else {
		put := func(name, unit string, v float64) { metrics[name] = metric{v, unit} }
		put("setup_s", "s", median(b.setup))
		put("peak_rss_mb", "MB", median(b.rss.mb))
		put("ok_frac", "ratio", float64(r.attempted-r.failed)/float64(r.attempted))
		// The compared timings are each operation's trimmed mean adjusted
		// to the reference speed; the raw median and tail are printed
		// beside them by name and unit, but not compared. See "End-to-end
		// metrics" in README.md for why.
		ref := trimmedMean(b.calib.samples)
		extra["calibration_s"] = map[string]any{"value": ref, "unit": "s", "samples": len(b.calib.samples)}
		extra["synth_rows_per_s"] = metric{float64(r.synthRows) / sum(r.samples["synth"]), "rows/s"}
		extra["ops_per_s"] = metric{float64(r.completed) / r.window, "1/s"}
		for _, t := range []struct {
			prefix, op, unit string
			scale            float64
		}{{"fit", "fit", "s", 1}, {"synth", "synth", "s", 1}, {"query", "query", "ms", 1e3}, {"append", "append", "ms", 1e3}} {
			s := r.samples[t.op]
			put(t.prefix+"_adj_"+t.unit, t.unit, t.scale*trimmedMean(s)*refNominal/ref)
			extra[t.prefix+"_p50_"+t.unit] = metric{t.scale * median(s), t.unit}
			v, p := tail(s)
			extra[t.prefix+"_tail_"+t.unit] = map[string]any{"value": t.scale * v, "unit": t.unit, "percentile": p, "samples": len(s)}
		}
		for name, m := range metrics {
			if m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				b.expect("metric-"+name, false, "no valid sample (value %v)", m.Value)
				correct = false
			}
		}
	}
	counts := map[string]int{}
	for op, s := range r.samples {
		counts[op] = len(s)
	}
	b.prov["samples"] = counts
	b.prov["setup_s"] = b.setup
	detail, err := json.Marshal(map[string]any{"provenance": b.prov, "extra_metrics": extra, "checks": b.checks})
	if err != nil {
		return err
	}
	res, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(detail))
	fmt.Println(string(res))
	return nil
}

// layerCatalogue lists every per-layer metric of a traced run with its
// unit. A layer a workload does not exercise reports zero: the daemon's
// layers (server, wal, accountant, curator) on the library workloads,
// and dataset, counts, marginal and score, which privbayesd does not
// export, on serve-mixed.
var layerCatalogue = []struct{ name, unit string }{
	{"traced.fit_p50_s", "s"}, {"traced.fit_mean_s", "s"}, {"trace.unattributed_s", "s"},
	{"dataset.scan_s", "s"}, {"dataset.scans", "count"}, {"dataset.rows_decoded", "count"}, {"dataset.bytes_read", "bytes"},
	{"counts.rowcount_s", "s"}, {"counts.prefetch_s", "s"}, {"counts.count_tables_s", "s"}, {"counts.self_s", "s"},
	{"counts.prefetch_calls", "count"}, {"counts.scans", "count"}, {"counts.rows_read", "count"},
	{"core.rest_s", "s"}, {"core.network_s", "s"}, {"core.network_iter_max_s", "s"}, {"core.marginals_s", "s"},
	{"core.sampling_s", "s"}, {"core.alloc_mb", "MB"}, {"core.gc_cycles", "count"},
	{"marginal.index_hits", "count"}, {"marginal.index_misses", "count"}, {"marginal.index_hit_ratio", "ratio"},
	{"score.memo_entries", "count"},
	{"infer.factor_products", "count"}, {"infer.peak_cells_p50", "cells"},
	{"server.synthesize_s", "s"}, {"server.query_s", "s"}, {"server.fit_s", "s"}, {"server.append_s", "s"},
	{"server.synthesize_transport_s", "s"}, {"server.query_transport_ms", "ms"}, {"server.response_mb", "MB"},
	{"server.shed", "count"}, {"server.queue_depth_max", "count"}, {"server.workers_busy_frac", "ratio"},
	{"wal.appends", "count"}, {"wal.fsync_s", "s"}, {"wal.fsync_p50_ms", "ms"}, {"accountant.epsilon_charged", "epsilon"},
	{"curator.rows_ingested", "count"}, {"curator.refits_cold", "count"}, {"curator.refits_incremental", "count"},
	{"curator.refit_s", "s"}, {"curator.count_store_cells", "cells"},
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rssPeaks records the resident-set high-water mark of the process
// doing the work ("self", or the daemon's pid) once per workload cycle:
// the kernel's mark is reset when a cycle starts and read when it ends.
// peak_rss_mb is the median cycle peak, so one unlucky coincidence of
// allocations does not decide it, while a change that holds more
// memory in every cycle does. One goroutine records; the report reads
// after it has finished.
type rssPeaks struct {
	pid string
	mb  []float64
	cur float64 // peak of the cycle's segments read so far
}

// start begins a cycle.
func (p *rssPeaks) start() error {
	p.cur = 0
	return p.resume()
}

// pause reads the peak of the cycle's current segment; resume resets
// the kernel's mark to open the next. Between the two, memory the
// benchmark itself maps (the calibration kernel's) does not count.
func (p *rssPeaks) pause() {
	mb, err := peakRSSMB(p.pid)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: read peak RSS:", err)
		return
	}
	p.cur = max(p.cur, mb)
}

func (p *rssPeaks) resume() error {
	return os.WriteFile("/proc/"+p.pid+"/clear_refs", []byte("5"), 0)
}

// end closes the cycle and records its peak.
func (p *rssPeaks) end() {
	p.pause()
	p.mb = append(p.mb, p.cur)
}

// calibrate times one calibration kernel outside the peak-memory
// reading.
func (b *bench) calibrate() {
	b.rss.pause()
	b.calib.measure()
	if err := b.rss.resume(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reset peak RSS:", err)
	}
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, in MiB.
func peakRSSMB(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
