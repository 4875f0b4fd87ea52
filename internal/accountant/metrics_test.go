package accountant

import (
	"errors"
	"path/filepath"
	"testing"

	"privbayes/internal/telemetry"
)

// TestLedgerMetrics drives every instrumented ledger path against a
// WAL-backed ledger and checks the registry reflects it: ε gauges and
// charge/refund counters per dataset, replay and rejection counters,
// and the WAL append/fsync families.
func TestLedgerMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	path := filepath.Join(t.TempDir(), "ledger.wal")
	l, err := OpenWAL(path, 1.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Instrument(m)

	first, err := l.Charge("ds", 0.25, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Charge("ds", 0.25, "k1", "model-a"); err != nil {
		t.Fatal(err)
	}
	// Replay: same key, no new spend.
	if replay, err := l.Charge("ds", 0.25, "k1", "model-a"); err != nil || !replay.Replayed() {
		t.Fatalf("replay = (%+v, %v), want a replayed spend", replay, err)
	}
	// Rejection: over budget.
	if _, err := l.Charge("ds", 0.9, "", ""); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("overcharge err = %v, want ErrBudgetExceeded", err)
	}
	if err := first.Refund(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	dsOf := func(name string) float64 {
		children, ok := snap[name].(map[string]any)
		if !ok {
			t.Fatalf("metric %s missing or unlabeled: %#v", name, snap[name])
		}
		v, _ := children["ds"].(float64)
		return v
	}
	if got := dsOf("privbayes_ledger_epsilon_spent"); got != 0.25 {
		t.Fatalf("epsilon_spent = %g, want 0.25", got)
	}
	if got := dsOf("privbayes_ledger_epsilon_budget"); got != 1.0 {
		t.Fatalf("epsilon_budget = %g, want 1", got)
	}
	if got := dsOf("privbayes_ledger_epsilon_charged_total"); got != 0.5 {
		t.Fatalf("epsilon_charged_total = %g, want 0.5", got)
	}
	if got := dsOf("privbayes_ledger_epsilon_refunded_total"); got != 0.25 {
		t.Fatalf("epsilon_refunded_total = %g, want 0.25", got)
	}
	if got := snap["privbayes_ledger_idempotent_replays_total"]; got != 1.0 {
		t.Fatalf("replays = %v, want 1", got)
	}
	if got := snap["privbayes_ledger_charges_rejected_total"]; got != 1.0 {
		t.Fatalf("rejected = %v, want 1", got)
	}
	// Three committed mutations (charge, idempotent charge, refund) each
	// appended one fsync'd WAL record.
	if got := snap["privbayes_wal_appends_total"]; got != 3.0 {
		t.Fatalf("wal_appends_total = %v, want 3", got)
	}
	if got, _ := snap["privbayes_wal_size_bytes"].(float64); got <= 0 {
		t.Fatalf("wal_size_bytes = %v, want > 0", got)
	}
	fsync, ok := snap["privbayes_wal_fsync_duration_seconds"].(map[string]any)
	if !ok || fsync["count"].(uint64) != 3 {
		t.Fatalf("wal_fsync_duration_seconds = %#v, want count 3", snap["privbayes_wal_fsync_duration_seconds"])
	}
}

// TestInstrumentSeedsRecoveredState proves gauges are seeded from state
// replayed out of the WAL, so a scrape right after restart reports the
// spend recorded before the crash.
func TestInstrumentSeedsRecoveredState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.wal")
	l, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Charge("ds", 0.75, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	reg := telemetry.NewRegistry()
	l2.Instrument(NewMetrics(reg))
	snap := reg.Snapshot()
	children := snap["privbayes_ledger_epsilon_spent"].(map[string]any)
	if got := children["ds"]; got != 0.75 {
		t.Fatalf("recovered epsilon_spent = %v, want 0.75", got)
	}
	if got := l2.RecoveredTruncation(); got != 0 {
		t.Fatalf("RecoveredTruncation after clean open = %d, want 0", got)
	}
}

// TestNilMetricsSafe pins that an uninstrumented ledger (nil Metrics)
// takes every path without panicking.
func TestNilMetricsSafe(t *testing.T) {
	l := New(1.0)
	l.Instrument(nil)
	spend, err := l.Charge("ds", 0.5, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Charge("ds", 0.9, "", ""); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v", err)
	}
	if err := spend.Refund(); err != nil {
		t.Fatal(err)
	}
	if NewMetrics(nil) != nil {
		t.Fatal("NewMetrics(nil) should return nil")
	}
}
