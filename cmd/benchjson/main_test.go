package main

import (
	"bufio"
	"reflect"
	"strings"
	"testing"
)

func parseString(t *testing.T, in string) *Report {
	t.Helper()
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestOneLinePerBenchmarkKeptAsParsed: without repeats every line is
// reported as parsed, in input order.
func TestOneLinePerBenchmarkKeptAsParsed(t *testing.T) {
	lines := []string{
		"BenchmarkCuratorIngest/batch=1000-2   5004   241543 ns/op   4140051 rows/s",
		"BenchmarkFitScanner/rows=50000-2        37 31950107 ns/op",
		"BenchmarkRefitCold/rows=50000-2       1176   915168 ns/op",
	}
	rep := parseString(t, "goos: linux\ncpu: Intel(R) Xeon(R) Processor\n"+strings.Join(lines, "\n")+"\nPASS\n")
	var want []Benchmark
	for _, l := range lines {
		b, ok := parseBenchLine(l)
		if !ok {
			t.Fatalf("unparsed line %q", l)
		}
		want = append(want, b)
	}
	if !reflect.DeepEqual(rep.Benchmarks, want) {
		t.Errorf("benchmarks = %+v, want %+v", rep.Benchmarks, want)
	}
	if rep.Goos != "linux" || rep.CPU != "Intel(R) Xeon(R) Processor" {
		t.Errorf("header = %q, %q", rep.Goos, rep.CPU)
	}
}

// TestRepeatedLinesFoldToMedians: the lines of one benchmark fold into
// their median iterations, ns/op and metrics (the mean of the middle
// two for an even count), and speedups pair the medians.
func TestRepeatedLinesFoldToMedians(t *testing.T) {
	rep := parseString(t, `
BenchmarkRefitCold/rows=10-2          10   300 ns/op   7 rows/s
BenchmarkRefitIncremental/rows=10-2    4    50 ns/op
BenchmarkRefitCold/rows=10-2          30   100 ns/op   9 rows/s
BenchmarkRefitIncremental/rows=10-2    8    70 ns/op
BenchmarkRefitCold/rows=10-2          20   200 ns/op   8 rows/s
`)
	want := []Benchmark{
		{Name: "BenchmarkRefitCold/rows=10", Iterations: 20, NsPerOp: 200, Metrics: map[string]float64{"rows/s": 8}},
		{Name: "BenchmarkRefitIncremental/rows=10", Iterations: 6, NsPerOp: 60},
	}
	if !reflect.DeepEqual(rep.Benchmarks, want) {
		t.Errorf("benchmarks = %+v, want %+v", rep.Benchmarks, want)
	}
	sp := speedups(rep.Benchmarks)
	if got, want := sp["refit_cold_vs_incremental/rows=10"], 200.0/60; got != want {
		t.Errorf("speedup = %v, want %v", got, want)
	}
}
