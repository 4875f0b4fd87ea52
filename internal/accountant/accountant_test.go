package accountant

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestChargeAndExhaustion(t *testing.T) {
	l := New(1.0)
	if _, err := l.Charge("adult", 0.6, "", ""); err != nil {
		t.Fatal(err)
	}
	_, err := l.Charge("adult", 0.6, "", "")
	if err == nil {
		t.Fatal("overdraw must fail")
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("error %v does not match ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %v is not a *BudgetError", err)
	}
	if be.Dataset != "adult" || be.Spent != 0.6 || be.Budget != 1.0 {
		t.Errorf("BudgetError = %+v", be)
	}
	// Rejected charge leaves the ledger untouched.
	if got := l.Get("adult").Spent; got != 0.6 {
		t.Errorf("spent after rejection = %g, want 0.6", got)
	}
	// The remaining 0.4 is still spendable.
	if _, err := l.Charge("adult", 0.4, "", ""); err != nil {
		t.Errorf("charging exactly the remainder: %v", err)
	}
	if rem := l.Get("adult").Remaining(); rem != 0 {
		t.Errorf("remaining = %g, want 0", rem)
	}
	// Other datasets are independent.
	if _, err := l.Charge("acs", 1.0, "", ""); err != nil {
		t.Errorf("independent dataset: %v", err)
	}
}

func TestChargeRejectsInvalidInput(t *testing.T) {
	l := New(1)
	for _, eps := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := l.Charge("d", eps, "", ""); err == nil {
			t.Errorf("Charge(%g) must fail", eps)
		}
	}
	if _, err := l.Charge("", 0.1, "", ""); err == nil {
		t.Error("empty dataset id must fail")
	}
	if got := l.Get("d").Spent; got != 0 {
		t.Errorf("invalid charges must not spend, got %g", got)
	}
}

func TestManyEqualSharesTolerance(t *testing.T) {
	// 10 × 0.1 must fit in a budget of 1.0 despite float dust.
	l := New(1.0)
	for i := 0; i < 10; i++ {
		if _, err := l.Charge("d", 0.1, "", ""); err != nil {
			t.Fatalf("share %d: %v", i, err)
		}
	}
	if _, err := l.Charge("d", 0.1, "", ""); err == nil {
		t.Error("11th share must fail")
	}
}

func TestRefund(t *testing.T) {
	l := New(1.0)
	spend, err := l.Charge("d", 0.8, "", "d-m1")
	if err != nil {
		t.Fatal(err)
	}
	if spend.ModelID() != "d-m1" || spend.Replayed() {
		t.Fatalf("fresh charge: model %q, replayed %v", spend.ModelID(), spend.Replayed())
	}
	if err := spend.Refund(); err != nil {
		t.Fatal(err)
	}
	if got := l.Get("d").Spent; got != 0 {
		t.Errorf("spent after refund = %g", got)
	}
	// A spend refunds once.
	if _, err := l.Charge("d", 0.2, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := spend.Refund(); err != nil {
		t.Fatal(err)
	}
	if got := l.Get("d").Spent; got != 0.2 {
		t.Errorf("spent after a second refund of one spend = %g, want 0.2", got)
	}
	// A kept spend never refunds, and a nil one is a no-op.
	kept, err := l.Charge("d", 0.3, "", "")
	if err != nil {
		t.Fatal(err)
	}
	kept.Keep()
	if err := kept.Refund(); err != nil {
		t.Fatal(err)
	}
	if got := l.Get("d").Spent; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("spent after refunding a kept spend = %g, want 0.5", got)
	}
	if err := (*Spend)(nil).Refund(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCharges races many goroutines on one ledger entry: with
// a budget of 1.0 and charges of 0.1, exactly 10 must succeed no matter
// how the goroutines interleave. Run under -race in CI.
func TestConcurrentCharges(t *testing.T) {
	l := New(1.0)
	const workers = 50
	var wg sync.WaitGroup
	results := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = l.Charge("shared", 0.1, "", "")
		}(i)
	}
	wg.Wait()
	ok := 0
	for _, err := range results {
		if err == nil {
			ok++
		} else if !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("unexpected error: %v", err)
		}
	}
	if ok != 10 {
		t.Errorf("%d charges succeeded, want exactly 10", ok)
	}
	if spent := l.Get("shared").Spent; math.Abs(spent-1.0) > 1e-9 {
		t.Errorf("total spent = %g, want 1.0", spent)
	}
}

// TestConcurrentMixedOps hammers all mutating entry points together so
// the race detector sees every lock interaction.
func TestConcurrentMixedOps(t *testing.T) {
	l, err := OpenWAL(filepath.Join(t.TempDir(), "ledger"), 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := []string{"a", "b"}[i%2]
			for j := 0; j < 20; j++ {
				spend, _ := l.Charge(id, 0.05, "", "")
				_ = l.Get(id)
				_ = l.Snapshot()
				if j%5 == 0 {
					_ = spend.Refund()
				}
			}
		}(i)
	}
	wg.Wait()
	if snap := l.Snapshot(); len(snap) != 2 {
		t.Errorf("datasets = %v", snap)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Charge("adult", 0.7, "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Charge("acs", 1.5, "", ""); err != nil {
		t.Fatal(err)
	}

	// A fresh process opens the same file under another default budget:
	// spends and the budgets recorded with them survive, the budget keeps
	// binding across restarts, and only unseen datasets take the new
	// default.
	back, err := OpenWAL(path, 3.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if e := back.Get("adult"); e.Spent != 0.7 || e.Budget != 2.0 {
		t.Errorf("adult entry = %+v", e)
	}
	if e := back.Get("acs"); e.Spent != 1.5 || e.Budget != 2.0 {
		t.Errorf("acs entry = %+v", e)
	}
	if e := back.Get("fresh"); e.Spent != 0 || e.Budget != 3.0 {
		t.Errorf("fresh entry = %+v", e)
	}
	if _, err := back.Charge("adult", 1.4, "", ""); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("reloaded ledger must still enforce the budget, got %v", err)
	}
}

// preWALLedgerJSON is a ledger as releases before the WAL wrote it: one
// JSON document, rewritten whole on every mutation.
const preWALLedgerJSON = `{
  "version": 1,
  "default_budget": 2,
  "datasets": {
    "survey": {"spent": 0.7, "budget": 2},
    "other": {"spent": 0, "budget": 9}
  }
}
`

// TestOpenRejectsCorruptLedger: a file that is not a WAL of charge,
// refund and checkpoint records fails to open with ErrLedgerCorrupt,
// also under Fsck, and the refused file is left as it was.
func TestOpenRejectsCorruptLedger(t *testing.T) {
	dir := t.TempDir()
	charge, err := json.Marshal(walRecord{Op: opCharge, Dataset: "d", Eps: 0.5, Spent: 0.5, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	budget, err := json.Marshal(walRecord{Op: "budget", Dataset: "d", Spent: 0.5, Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	writeRecords(t, filepath.Join(dir, "budget.wal"), charge, budget)
	budgetWAL, err := os.ReadFile(filepath.Join(dir, "budget.wal"))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"garbage":             []byte("not json"),
		"shorter than magic":  []byte("{}"),
		"pre-WAL JSON ledger": []byte(preWALLedgerJSON),
		"budget record":       budgetWAL,
	}
	path := filepath.Join(dir, "ledger")
	for name, raw := range cases {
		for _, fsck := range []bool{false, true} {
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if l, err := OpenWAL(path, 1, Options{Fsck: fsck}); !errors.Is(err, ErrLedgerCorrupt) {
				if err == nil {
					l.Close()
				}
				t.Errorf("%s (fsck %v): OpenWAL err = %v, want ErrLedgerCorrupt", name, fsck, err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, raw) {
				t.Errorf("%s (fsck %v): refused file changed (err %v)", name, fsck, err)
			}
		}
	}
}

func TestOpenMissingFileStartsEmpty(t *testing.T) {
	l, err := OpenWAL(filepath.Join(t.TempDir(), "fresh"), 1.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if e := l.Get("x"); e.Spent != 0 || e.Budget != 1.5 {
		t.Errorf("fresh entry = %+v", e)
	}
	if _, err := OpenWAL(filepath.Join(t.TempDir(), "x"), 0, Options{}); err == nil {
		t.Error("non-positive default budget must be rejected")
	}
}
