package main

// Per-layer tracing of serve-mixed, from outside the daemon: /metrics is
// scraped before and after the window and the per-layer metrics are
// deltas of its families, while /healthz is sampled every 100 ms for
// the worker queue. Client latency minus the daemon's handler time is
// the transport time.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"privbayes/internal/server"
)

// snapshot is one /metrics scrape: series ("name{labels}") -> value.
type snapshot map[string]float64

func scrape(ctx context.Context, c *server.Client) (snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	s := snapshot{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// sum adds every series of family name whose labels contain filter.
func (s snapshot) sum(name, filter string) float64 {
	var t float64
	for series, v := range s {
		n, labels, _ := strings.Cut(series, "{")
		if n == name && strings.Contains(labels, filter) {
			t += v
		}
	}
	return t
}

// quantile estimates quantile q of the observations histogram family
// name received between two scrapes, as the upper bound of the bucket
// holding it.
func quantile(before, after snapshot, name, filter string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for series, v := range after {
		n, labels, _ := strings.Cut(series, "{")
		if n != name+"_bucket" || !strings.Contains(labels, filter) {
			continue
		}
		_, le, _ := strings.Cut(labels, `le="`)
		le, _, _ = strings.Cut(le, `"`)
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{bound, v - before[series]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	total := bs[len(bs)-1].n
	for i, b := range bs {
		if b.n >= q*total {
			if math.IsInf(b.le, 1) && i > 0 {
				return bs[i-1].le
			}
			return b.le
		}
	}
	return 0
}

// serveTrace samples the daemon's worker queue during the window.
type serveTrace struct {
	c        *server.Client
	before   snapshot
	stop     chan struct{}
	done     chan struct{}
	queueMax float64
	busy     []float64
}

func startServeTrace(ctx context.Context, c *server.Client) (*serveTrace, error) {
	before, err := scrape(ctx, c)
	if err != nil {
		return nil, err
	}
	t := &serveTrace{c: c, before: before, stop: make(chan struct{}), done: make(chan struct{})}
	go t.sample(ctx)
	return t, nil
}

func (t *serveTrace) sample(ctx context.Context) {
	defer close(t.done)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
		var h struct {
			Total     float64 `json:"workers_total"`
			Available float64 `json:"workers_available"`
			Queue     float64 `json:"queue_depth"`
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.c.BaseURL+"/healthz", nil)
		if err != nil {
			continue
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil || h.Total == 0 {
			continue
		}
		t.queueMax = max(t.queueMax, h.Queue)
		t.busy = append(t.busy, (h.Total-h.Available)/h.Total)
	}
}

func (t *serveTrace) stopSampling() {
	close(t.stop)
	<-t.done
}

func (t *serveTrace) report(b *bench, after snapshot) {
	delta := func(name, filter string) float64 { return after.sum(name, filter) - t.before.sum(name, filter) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	meanOf := func(name, filter string) float64 {
		return ratio(delta(name+"_sum", filter), delta(name+"_count", filter))
	}
	const httpSeconds = "privbayes_http_request_duration_seconds"
	const phases = "privbayes_pipeline_phase_duration_seconds"
	const refits = "privbayes_curator_refit_duration_seconds"
	r := b.rec
	put := func(name string, v float64) { b.layers[name] = v }

	synthHandler := meanOf(httpSeconds, `route="synthesize"`)
	queryHandler := meanOf(httpSeconds, `route="query"`)
	fitHandler := meanOf(httpSeconds, `route="fit"`)
	put("traced.fit_p50_s", median(r.samples["fit"]))
	put("traced.fit_mean_s", mean(r.samples["fit"]))
	put("trace.unattributed_s", mean(r.samples["fit"])-fitHandler)
	put("server.synthesize_s", synthHandler)
	put("server.query_s", queryHandler)
	put("server.fit_s", fitHandler)
	put("server.append_s", meanOf(httpSeconds, `route="dataset_rows"`))
	put("server.synthesize_transport_s", mean(r.samples["synth"])-synthHandler)
	put("server.query_transport_ms", 1e3*(mean(r.samples["query"])-queryHandler))
	put("server.response_mb", ratio(delta("privbayes_http_response_bytes_total", `route="synthesize"`),
		delta(httpSeconds+"_count", `route="synthesize"`))/(1<<20))
	put("server.shed", delta("privbayes_http_requests_shed_total", ""))
	put("server.queue_depth_max", t.queueMax)
	put("server.workers_busy_frac", mean(t.busy))
	put("core.network_s", meanOf(phases, `phase="network"`))
	put("core.marginals_s", meanOf(phases, `phase="marginals"`))
	put("core.sampling_s", ratio(delta(phases+"_sum", `phase="sampling"`), float64(len(r.samples["synth"]))))
	put("infer.factor_products", ratio(delta("privbayes_infer_factor_products_total", ""), delta("privbayes_queries_total", "")))
	put("infer.peak_cells_p50", quantile(t.before, after, "privbayes_infer_peak_cells", "", 0.5))
	put("wal.appends", delta("privbayes_wal_appends_total", ""))
	put("wal.fsync_s", delta("privbayes_wal_fsync_duration_seconds_sum", ""))
	put("wal.fsync_p50_ms", 1e3*quantile(t.before, after, "privbayes_wal_fsync_duration_seconds", "", 0.5))
	put("accountant.epsilon_charged", delta("privbayes_ledger_epsilon_charged_total", ""))
	put("curator.rows_ingested", delta("privbayes_curator_rows_ingested_total", ""))
	put("curator.refits_cold", delta(refits+"_count", `kind="cold"`))
	put("curator.refits_incremental", delta(refits+"_count", `kind="incremental"`))
	put("curator.refit_s", meanOf(refits, ""))
	put("curator.count_store_cells", after.sum("privbayes_curator_count_store_cells", ""))
}
