// Command benchjson converts `go test -bench` output on stdin into
// machine-readable JSON on stdout, so benchmark results can be captured
// as artifacts (see the Makefile's bench-json target, which writes
// BENCH_scoring.json) and diffed across commits without screen-scraping.
//
// The repeated lines of one benchmark (go test -count N) are folded into
// one entry holding their median iterations, ns/op and metrics. Besides
// the per-benchmark table it pairs each fast benchmark family's <sub>
// results with its baseline family's (speedupPairs) and reports the
// speedups of those medians.
//
// Usage:
//
//	go test -run NONE -bench ScoreBatch ./internal/score | benchjson
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"privbayes/internal/cliutil"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report is the emitted document.
type Report struct {
	Goos       string             `json:"goos,omitempty"`
	Goarch     string             `json:"goarch,omitempty"`
	Pkg        string             `json:"pkg,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Benchmarks []Benchmark        `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups,omitempty"`
}

func main() {
	in := flag.String("in", "", "read bench output from this file instead of stdin")
	cliutil.Parse("benchjson", "convert `go test -bench` output (stdin or -in file) to machine-readable JSON")
	src := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		src = f
	}
	rep, err := parse(bufio.NewScanner(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rep.Speedups = speedups(rep.Benchmarks)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	rep.Benchmarks = fold(rep.Benchmarks)
	return rep, nil
}

// fold merges the lines of each benchmark into one entry holding the
// median of every value over its lines, in the order the benchmarks
// first appear. A benchmark of one line is kept as it is.
func fold(lines []Benchmark) []Benchmark {
	var names []string
	runs := map[string][]Benchmark{}
	for _, b := range lines {
		if _, ok := runs[b.Name]; !ok {
			names = append(names, b.Name)
		}
		runs[b.Name] = append(runs[b.Name], b)
	}
	out := make([]Benchmark, len(names))
	for i, name := range names {
		var iters, ns []float64
		metrics := map[string][]float64{}
		for _, r := range runs[name] {
			iters, ns = append(iters, float64(r.Iterations)), append(ns, r.NsPerOp)
			for unit, v := range r.Metrics {
				metrics[unit] = append(metrics[unit], v)
			}
		}
		b := Benchmark{Name: name, Iterations: int64(math.Round(median(iters))), NsPerOp: median(ns)}
		for unit, vs := range metrics {
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = median(vs)
		}
		out[i] = b
	}
	return out
}

// median returns the middle of vs, or the mean of its middle two; it
// sorts vs in place.
func median(vs []float64) float64 {
	slices.Sort(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// parseBenchLine parses "BenchmarkX/sub-8  100  123 ns/op  4 B/op ...".
// Value/unit pairs beyond ns/op land in Metrics keyed by unit.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Trim the GOMAXPROCS suffix go test appends.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			b.NsPerOp = v
			continue
		}
		if b.Metrics == nil {
			b.Metrics = map[string]float64{}
		}
		b.Metrics[unit] = v
	}
	return b, b.NsPerOp > 0
}

// speedupPairs are the fast-vs-baseline benchmark families whose
// matching sub-benchmarks are paired into headline speedups.
var speedupPairs = []struct{ fast, base, label string }{
	// Columnar popcount counting against the legacy row-major walk on
	// the same bit-packed dataset (internal/marginal, k ∈ {2,3,5}
	// parents × d ∈ {8,16,32} attributes, sub-names k<k>/d<d>).
	{"BenchmarkCountColumnar/", "BenchmarkCountRowMajor/", "columnar_vs_rowmajor/"},
	// The exact query engine against synthesize-then-scan.
	{"BenchmarkQuery/", "BenchmarkSynthesizeThenScan/", "query_vs_scan/"},
	// Telemetry pairs invert the usual reading: fast is the no-op (off)
	// path, so the ratio is on_ns/off_ns — the relative cost of enabling
	// telemetry. 1.00 means free; the acceptance bar is <= 1.05 on the
	// end-to-end serving pair.
	{"BenchmarkTelemetryOverhead/off/", "BenchmarkTelemetryOverhead/on/", "telemetry_on_vs_off/"},
	{"BenchmarkServeSynthesizeTelemetry/off/", "BenchmarkServeSynthesizeTelemetry/on/", "serve_telemetry_on_vs_off/"},
	// How much faster an incremental curator refit (the known network's
	// conditionals over the resident rows) is than a cold one, which
	// learns the structure as well. The out-of-core fit's cost against
	// the in-memory one is not paired here: a fit small enough for this
	// benchmark misstates it, so perfbench's fit-outofcore and
	// fit-binary workloads measure it end to end.
	{"BenchmarkRefitIncremental/", "BenchmarkRefitCold/", "refit_cold_vs_incremental/"},
}

// speedups pairs each family's <fast>/<sub> with <base>/<sub> and
// reports base_ns / fast_ns.
func speedups(benches []Benchmark) map[string]float64 {
	out := map[string]float64{}
	for _, pair := range speedupPairs {
		fastNs := map[string]float64{}
		baseNs := map[string]float64{}
		for _, b := range benches {
			if sub, ok := strings.CutPrefix(b.Name, pair.fast); ok {
				fastNs[sub] = b.NsPerOp
			}
			if sub, ok := strings.CutPrefix(b.Name, pair.base); ok {
				baseNs[sub] = b.NsPerOp
			}
		}
		for sub, f := range fastNs {
			if l, ok := baseNs[sub]; ok && f > 0 {
				out[pair.label+sub] = l / f
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
