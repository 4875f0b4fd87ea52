// Command privbayes synthesizes a differentially private copy of a CSV
// dataset end to end: infer a schema (or accept one), fit a PrivBayes
// model, sample, and write the synthetic CSV.
//
// Usage:
//
//	privbayes -in data.csv -out synthetic.csv -epsilon 1.0
//	privbayes -in data.csv -out syn.csv -epsilon 0.2 -bins 16 -seed 7
//
// Schema inference: a column whose every value parses as a float and
// that has more distinct values than -bins is treated as continuous with
// -bins equi-width bins; every other column is categorical with its
// observed labels as the domain.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"syscall"

	"privbayes"
	"privbayes/internal/cliutil"
	"privbayes/internal/dataset"
	"privbayes/internal/profiling"
)

func main() {
	var (
		in         = flag.String("in", "", "input CSV file with a header row (required)")
		out        = flag.String("out", "", "output CSV file (required)")
		epsilon    = flag.Float64("epsilon", 1.0, "total differential-privacy budget ε")
		beta       = flag.Float64("beta", 0.3, "budget fraction for network learning")
		theta      = flag.Float64("theta", 4, "θ-usefulness threshold")
		bins       = flag.Int("bins", 16, "bins for continuous attributes")
		rows       = flag.Int("rows", 0, "synthetic rows to emit (0 = same as input)")
		seed       = flag.Int64("seed", 1, "random seed")
		par        = flag.Int("parallelism", 0, "worker pool size (0 = all cores)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	cliutil.Parse("privbayes", "synthesize a differentially private copy of a CSV dataset")
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "privbayes: -in and -out are required")
		os.Exit(2)
	}
	stop, err := profiling.Start(*cpuprofile, *memprofile,
		slog.New(slog.NewTextHandler(os.Stderr, nil)).With("prog", "privbayes"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "privbayes:", err)
		os.Exit(1)
	}
	// Ctrl-C cancels the pipeline mid-fit or mid-stream: the v2 API
	// stops within one scoring batch or sample chunk and returns
	// context.Canceled, so profiles still flush and temp state is not
	// left behind by a killed process.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err = run(ctx, *in, *out, *epsilon, *beta, *theta, *bins, *rows, *par, *seed)
	cancel()
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "privbayes:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, in, out string, epsilon, beta, theta float64, bins, rows, par int, seed int64) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	header, records, err := readAll(f)
	if err != nil {
		return err
	}
	if len(records) == 0 {
		return fmt.Errorf("%s has no data rows", in)
	}

	// The schema is inferred from the cells as text; the rows are then
	// decoded against it by the library's CSV decoder, which rejects a
	// cell the schema cannot hold, such as a non-finite number.
	attrs := inferSchema(header, records, bins)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	ds, err := dataset.ReadCSV(f, attrs)
	if err != nil {
		return err
	}

	model, err := privbayes.Fit(ctx, ds,
		privbayes.WithEpsilon(epsilon),
		privbayes.WithBeta(beta),
		privbayes.WithTheta(theta),
		privbayes.WithParallelism(par),
		privbayes.WithSeed(seed),
	)
	if err != nil {
		return err
	}
	if rows <= 0 {
		rows = ds.N()
	}

	of, err := os.Create(out)
	if err != nil {
		return err
	}
	defer of.Close()
	// Stream straight to the file: memory stays bounded by the
	// generation chunk no matter how many rows are requested. The
	// sampling seed is derived from -seed so the whole run replays from
	// one flag.
	if err := model.SynthesizeTo(ctx, of, rows, privbayes.FormatCSV,
		privbayes.SynthSeed(seed+1), privbayes.SynthParallelism(par)); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d synthetic rows (%d attributes) to %s under ε=%g\n",
		rows, ds.D(), out, epsilon)
	return nil
}

func readAll(r io.Reader) (header []string, records [][]string, err error) {
	cr := csv.NewReader(r)
	header, err = cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("read header: %w", err)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		records = append(records, rec)
	}
	return header, records, nil
}

func inferSchema(header []string, records [][]string, bins int) []privbayes.Attribute {
	attrs := make([]privbayes.Attribute, len(header))
	for c, name := range header {
		numeric := true
		min, max := 0.0, 0.0
		distinct := map[string]bool{}
		for i, rec := range records {
			distinct[rec[c]] = true
			v, err := strconv.ParseFloat(rec[c], 64)
			if err != nil {
				numeric = false
				continue
			}
			if i == 0 || v < min {
				min = v
			}
			if i == 0 || v > max {
				max = v
			}
		}
		if numeric && len(distinct) > bins {
			attrs[c] = privbayes.NewContinuous(name, min, max, bins)
			continue
		}
		labels := make([]string, 0, len(distinct))
		for l := range distinct {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		attrs[c] = privbayes.NewCategorical(name, labels)
	}
	return attrs
}
