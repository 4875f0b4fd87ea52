// Command privbayesd is the PrivBayes synthesis-serving daemon: it
// hosts a registry of fitted models (loaded from -models-dir and via
// uploads), streams synthetic data and answers marginal queries from
// them, and — in curator mode — fits new models from CSV uploads under
// a persistent per-dataset privacy-budget ledger.
//
// Usage:
//
//	privbayesd -addr :8131 -models-dir models -ledger models/ledger.wal
//
// Then:
//
//	curl localhost:8131/models
//	curl 'localhost:8131/models/adult-v1/synthesize?n=100000&seed=7' > syn.csv
//	curl -X POST localhost:8131/models/adult-v1/marginal \
//	     -d '{"attrs":["age","income"]}'
//
// The ledger is a crash-safe write-ahead log: every ε charge is fsynced
// before it is acknowledged, so kill -9 can neither lose a committed
// charge nor double-spend the budget. A corrupt ledger refuses startup;
// -ledger-fsck truncates it at the first damaged record after the
// operator has decided the tail is expendable. A file that is not a
// ledger WAL (such as the JSON document releases before the WAL wrote)
// refuses startup even under -ledger-fsck.
//
// The daemon prints "listening on <addr>" once the socket is bound, so
// -addr 127.0.0.1:0 works for tests and local experiments.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"privbayes/internal/accountant"
	"privbayes/internal/cliutil"
	"privbayes/internal/profiling"
	"privbayes/internal/server"
	"privbayes/internal/telemetry"
)

// options carries every flag from main to run.
type options struct {
	addr          string
	modelsDir     string
	ledgerPath    string
	ledgerFsck    bool
	budget        float64
	curatorDir    string
	refitEpsilon  float64
	refitRows     int64
	refitStale    time.Duration
	workers       int
	reqPar        int
	maxRows       int
	maxMB         int64
	maxQueue      int
	maxFits       int
	readTimeout   time.Duration
	writeTimeout  time.Duration
	shutdownGrace time.Duration
	logFormat     string
	logLevel      string
	pprofAddr     string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8131", "listen address (host:port; port 0 picks a free port)")
	flag.StringVar(&o.modelsDir, "models-dir", "models", "directory of model artifacts loaded at startup and receiving new fits/uploads")
	flag.StringVar(&o.ledgerPath, "ledger", "", "privacy-budget ledger WAL for curator mode, created if missing (empty = in-memory ledger)")
	flag.BoolVar(&o.ledgerFsck, "ledger-fsck", false, "repair a corrupt ledger by truncating it at the first damaged record, then continue startup (records from the damage onward are lost)")
	flag.Float64Var(&o.budget, "budget", 2.0, "default per-dataset ε budget for curator-mode fits")
	flag.StringVar(&o.curatorDir, "curator-dir", "", "directory of crash-safe row logs for continuously curated datasets (empty = /datasets endpoints disabled)")
	flag.Float64Var(&o.refitEpsilon, "refit-epsilon", 0, "ε charged per automatic curator refit; refits hold each curated dataset's rows in memory, bit-packed (0 = ingest only: no automatic refits, no rows held)")
	flag.Int64Var(&o.refitRows, "refit-rows", 0, "refit a curated dataset once this many rows arrive since its last fit (0 = no row trigger)")
	flag.DurationVar(&o.refitStale, "refit-staleness", 0, "refit a curated dataset once unfitted rows are older than this (0 = no staleness trigger)")
	flag.IntVar(&o.workers, "max-workers", 0, "server-wide sampling/fitting worker budget (0 = all cores)")
	flag.IntVar(&o.reqPar, "max-request-parallelism", 0, "max workers one request may claim (0 = whole budget)")
	flag.IntVar(&o.maxRows, "max-rows", server.DefaultMaxSynthesisRows, "max synthetic rows per request")
	flag.Int64Var(&o.maxMB, "max-upload-mb", 256, "max upload size (model artifacts and fit CSVs), in MiB")
	flag.IntVar(&o.maxQueue, "max-queue-depth", server.DefaultMaxQueueDepth, "requests allowed to wait for workers before new arrivals get 503 + Retry-After")
	flag.IntVar(&o.maxFits, "max-fits-per-dataset", server.DefaultMaxFitsPerDataset, "concurrent fits per dataset id before new fits get 429 + Retry-After")
	flag.DurationVar(&o.readTimeout, "read-timeout", 10*time.Minute, "max duration for reading one request incl. body (0 = unlimited; bound fit-upload stalls)")
	flag.DurationVar(&o.writeTimeout, "write-timeout", 30*time.Minute, "max duration for writing one response (0 = unlimited; bounds abandoned synthesis streams)")
	flag.DurationVar(&o.shutdownGrace, "shutdown-grace", 10*time.Second, "drain period for in-flight requests on SIGINT/SIGTERM before force-close")
	flag.StringVar(&o.logFormat, "log-format", "text", "structured log encoding: text or json")
	flag.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	flag.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
	cliutil.Parse("privbayesd", "serve synthesis, inference and budget-metered fitting of PrivBayes models over HTTP")
	if err := run(o); err != nil {
		// run may fail before (or because) -log-format/-log-level parsed,
		// so the fatal line uses a fixed text logger.
		slog.New(slog.NewTextHandler(os.Stderr, nil)).Error("privbayesd exiting", slog.String("error", err.Error()))
		os.Exit(1)
	}
}

func run(o options) error {
	// One injectable logger seam: every daemon diagnostic — startup,
	// ledger recovery, per-request lines, shutdown — flows through this
	// slog.Logger, so -log-format/-log-level govern all of it and tests
	// can capture it whole.
	log, err := telemetry.NewLogger(os.Stderr, o.logFormat, o.logLevel)
	if err != nil {
		return err
	}
	logf := func(format string, args ...any) {
		log.Info(fmt.Sprintf(format, args...))
	}
	var ledger *accountant.Ledger
	if o.ledgerPath != "" {
		ledger, err = accountant.OpenWAL(o.ledgerPath, o.budget,
			accountant.Options{Fsck: o.ledgerFsck, Logf: logf})
		if err != nil {
			var ce *accountant.CorruptError
			if errors.As(err, &ce) {
				// Refusing to serve beats silently mis-accounting ε. The
				// operator decides whether the damaged tail is expendable.
				return fmt.Errorf("ledger %s is corrupt at byte offset %d (%s).\n"+
					"privbayesd refuses to start on a damaged privacy ledger: charges after the damage may be unaccounted.\n"+
					"To repair by truncating at the damage (losing any records after it), rerun with -ledger-fsck.\n"+
					"To keep the file for inspection first, copy it elsewhere before repairing.",
					ce.Path, ce.Offset, ce.Reason)
			}
			return err
		}
		defer ledger.Close()
	} else {
		ledger = accountant.New(o.budget)
		logf("no -ledger file: privacy budgets reset on restart")
	}
	srv, err := server.New(server.Config{
		ModelsDir:             o.modelsDir,
		Ledger:                ledger,
		MaxWorkers:            o.workers,
		MaxRequestParallelism: o.reqPar,
		MaxSynthesisRows:      o.maxRows,
		MaxUploadBytes:        o.maxMB << 20,
		MaxQueueDepth:         o.maxQueue,
		MaxFitsPerDataset:     o.maxFits,
		CuratorDir:            o.curatorDir,
		RefitEpsilon:          o.refitEpsilon,
		RefitRows:             o.refitRows,
		RefitStaleness:        o.refitStale,
		Logger:                log,
		Telemetry:             telemetry.NewRegistry(),
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	// Announced after the bind so callers using port 0 can scrape the
	// resolved address (the e2e test and `make serve` both rely on it).
	logf("listening on %s (%d model(s) registered)", ln.Addr(), srv.Registry().Len())

	// The pprof listener is separate from the API listener on purpose:
	// profiles expose internals and should normally bind loopback only.
	if o.pprofAddr != "" {
		pln, err := net.Listen("tcp", o.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		log.Info("pprof listening", slog.String("addr", pln.Addr().String()))
		go func() {
			ps := &http.Server{Handler: profiling.Mux(), ReadHeaderTimeout: 10 * time.Second}
			if err := ps.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("pprof server", slog.String("error", err.Error()))
			}
		}()
	}
	hs := &http.Server{
		Handler: srv,
		// Header and idle timeouts bound slow-loris and abandoned
		// keep-alive connections; the read/write timeouts bound whole
		// requests, so a stalled fit upload or an abandoned synthesis
		// stream cannot hold its connection forever. Legitimately huge
		// transfers can lift them via the flags.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       o.readTimeout,
		WriteTimeout:      o.writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful shutdown: SIGINT/SIGTERM stops accepting connections and
	// drains in-flight requests for a grace period, then force-closes
	// the stragglers — closing a connection cancels its request
	// context, which aborts the fit or stream it was driving and (for
	// fits) refunds the ledger charge.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		logf("shutting down")
		grace, cancel := context.WithTimeout(context.Background(), o.shutdownGrace)
		defer cancel()
		if err := hs.Shutdown(grace); err != nil {
			hs.Close()
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
