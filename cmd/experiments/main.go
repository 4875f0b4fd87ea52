// Command experiments regenerates the paper's evaluation tables and
// figures. Each run prints CSV rows (figure,panel,series,x,value) to
// stdout; progress goes to stderr.
//
// Usage:
//
//	experiments -figure 4                 # Figure 4 with default settings
//	experiments -figure 12 -repeats 10    # more averaging
//	experiments -figure all -n 5000       # quick pass over everything
//	experiments -figure 13 -heavy         # enable MWEM on ACS
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"privbayes/internal/cliutil"
	"privbayes/internal/experiment"
	"privbayes/internal/profiling"
)

func main() {
	var (
		figure     = flag.String("figure", "", "figure/table id to run (4..19, table4, table5, or 'all')")
		repeats    = flag.Int("repeats", 3, "runs averaged per point (the paper uses 100)")
		n          = flag.Int("n", 0, "cap dataset cardinality (0 = paper size)")
		seed       = flag.Int64("seed", 42, "base random seed")
		maxK       = flag.Int("maxk", 5, "cap on the binary-mode network degree (0 = uncapped)")
		subsets    = flag.Int("queries", 400, "evaluate at most this many Qα subsets (0 = all)")
		heavy      = flag.Bool("heavy", false, "enable full-domain baselines on ACS (slow)")
		par        = flag.Int("parallelism", 0, "worker pool size per run (0 = all cores)")
		epsFlag    = flag.String("eps", "", "comma-separated ε grid override")
		listOnly   = flag.Bool("list", false, "list runnable experiment ids and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	cliutil.Parse("experiments", "regenerate the paper's evaluation figures and tables")

	if *listOnly {
		for _, id := range experiment.Figures() {
			fmt.Println(id)
		}
		return
	}
	if *figure == "" {
		fmt.Fprintln(os.Stderr, "experiments: -figure is required (try -list)")
		os.Exit(2)
	}

	// run is wrapped so the profile flush runs on failure exits too — a
	// failing run is exactly when the profiles are wanted.
	stop, err := profiling.Start(*cpuprofile, *memprofile,
		slog.New(slog.NewTextHandler(os.Stderr, nil)).With("prog", "experiments"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	code := run(*figure, *repeats, *n, *seed, *maxK, *subsets, *heavy, *par, *epsFlag)
	stop()
	os.Exit(code)
}

func run(figure string, repeats, n int, seed int64, maxK, subsets int, heavy bool, par int, epsFlag string) int {
	cfg := experiment.DefaultConfig()
	cfg.Repeats = repeats
	cfg.N = n
	cfg.Seed = seed
	cfg.MaxK = maxK
	cfg.MaxQuerySubsets = subsets
	cfg.Heavy = heavy
	cfg.Parallelism = par
	cfg.Out = os.Stdout
	if epsFlag != "" {
		for _, tok := range strings.Split(epsFlag, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: bad -eps value %q: %v\n", tok, err)
				return 2
			}
			cfg.Eps = append(cfg.Eps, v)
		}
	}

	ids := []string{figure}
	if figure == "all" {
		ids = experiment.Figures()
	}
	fmt.Println("figure,panel,series,x,value")
	for _, id := range ids {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "== running %s ==\n", id)
		if _, err := experiment.Run(id, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", id, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "== %s done in %v ==\n", id, time.Since(start))
	}
	return 0
}
