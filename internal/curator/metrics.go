package curator

import "privbayes/internal/telemetry"

// Metrics is the curator's telemetry catalog. Every accessor is
// nil-safe: a nil *Metrics (telemetry disabled) turns instrumentation
// into no-ops, matching the registry's own nil-safety.
type Metrics struct {
	r             *telemetry.Registry
	rowsIngested  *telemetry.Counter
	appendBatches *telemetry.CounterVec // outcome: appended|duplicate|rejected
	refits        *telemetry.CounterVec // outcome: published|recovered|failed|skipped
	refitSeconds  *telemetry.HistogramVec
}

// NewMetrics registers the curator counter and histogram families on r.
// The gauges (dataset count, staleness, resident row bytes) are sampled
// from the live curator and attach when New wires a curator to this
// catalog. A nil registry returns a usable catalog whose instruments
// all no-op.
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		r: r,
		rowsIngested: r.Counter("privbayes_curator_rows_ingested_total",
			"Rows durably appended to curated row logs."),
		appendBatches: r.CounterVec("privbayes_curator_append_batches_total",
			"Append batches by outcome.", "outcome"),
		refits: r.CounterVec("privbayes_curator_refits_total",
			"Refit attempts by outcome.", "outcome"),
		refitSeconds: r.HistogramVec("privbayes_curator_refit_duration_seconds",
			"Refit latency by kind (cold vs incremental).",
			telemetry.ExponentialBuckets(0.01, 2, 14), "kind"),
	}
}

func (m *Metrics) enabled() bool { return m != nil }

// observe registers the curator-backed gauges.
func (m *Metrics) observe(c *Curator) {
	if !m.enabled() || m.r == nil {
		return
	}
	m.r.GaugeFunc("privbayes_curator_datasets",
		"Curated datasets currently open.",
		func() float64 { return float64(c.Len()) })
	m.r.GaugeFunc("privbayes_curator_staleness_seconds",
		"Age in seconds of the oldest unfitted append across curated datasets (0 when all models are fresh).",
		c.StalenessSeconds)
	m.r.GaugeFunc("privbayes_curator_resident_bytes",
		"Bytes of packed rows held in memory for refits across curated datasets.",
		func() float64 { return float64(c.ResidentBytes()) })
}

func (m *Metrics) batch(outcome string, rows int) {
	if !m.enabled() {
		return
	}
	m.appendBatches.With(outcome).Inc()
	if outcome == "appended" {
		m.rowsIngested.Add(float64(rows))
	}
}

func (m *Metrics) refit(outcome, kind string, seconds float64) {
	if !m.enabled() {
		return
	}
	m.refits.With(outcome).Inc()
	if outcome == "published" || outcome == "failed" {
		m.refitSeconds.With(kind).Observe(seconds)
	}
}
