package accountant

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"privbayes/internal/faultfs"
)

func TestOpenWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Charge("a", 0.3, "", ""); err != nil {
		t.Fatal(err)
	}
	refunded, err := l.Charge("a", 0.2, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetBudget("b", 5.0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Charge("b", 3.0, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := refunded.Refund(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if e := l2.Get("a"); math.Abs(e.Spent-0.3) > 1e-12 || e.Budget != 2.0 {
		t.Errorf("a = %+v", e)
	}
	if e := l2.Get("b"); e.Spent != 3.0 || e.Budget != 5.0 {
		t.Errorf("b = %+v", e)
	}
	// The recovered ledger still enforces the budget.
	if _, err := l2.Charge("b", 2.5, "", ""); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("overdraw after recovery: %v", err)
	}
}

// legacyLedgerJSON is a ledger as earlier releases wrote it: one JSON
// document, rewritten whole on every mutation.
const legacyLedgerJSON = `{
  "version": 1,
  "default_budget": 2,
  "datasets": {
    "survey": {"spent": 0.7, "budget": 2},
    "other": {"spent": 0, "budget": 9}
  }
}
`

// writeLegacyLedger writes legacyLedgerJSON to a fresh path and returns
// it.
func writeLegacyLedger(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := os.WriteFile(path, []byte(legacyLedgerJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestClosedLedgerRefusesMutations: once closed, a file-backed ledger
// cannot make a mutation durable, so it must not acknowledge one.
func TestClosedLedgerRefusesMutations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Charge("d", 0.5, "", ""); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Charge("d", 0.5, "", ""); !errors.Is(err, ErrPersist) {
		t.Fatalf("charge after Close: err = %v, want ErrPersist", err)
	}
	if e := l.Get("d"); e.Spent != 0.5 {
		t.Fatalf("spent = %g after a refused charge, want 0.5", e.Spent)
	}
	back, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if e := back.Get("d"); e.Spent != 0.5 {
		t.Fatalf("reopened spent = %g, want 0.5", e.Spent)
	}
}

func TestOpenWALMigratesLegacyJSON(t *testing.T) {
	path := writeLegacyLedger(t)
	l, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e := l.Get("survey"); e.Spent != 0.7 || e.Budget != 2.0 {
		t.Errorf("survey after migration = %+v", e)
	}
	if e := l.Get("other"); e.Budget != 9.0 {
		t.Errorf("other after migration = %+v", e)
	}
	if _, err := l.Charge("survey", 1.0, "", ""); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// The file is now a WAL — and keeps working across another cycle.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "PBWAL") {
		t.Fatalf("migrated file does not start with WAL magic: %q", raw[:8])
	}
	l2, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if e := l2.Get("survey"); math.Abs(e.Spent-1.7) > 1e-12 {
		t.Errorf("survey after second open = %+v", e)
	}
	if stray, _ := filepath.Glob(path + ".migrate"); len(stray) != 0 {
		t.Errorf("leftover migration file: %v", stray)
	}
}

func TestKeyedChargeIsIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenWAL(path, 2.0, Options{CompactEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	spend, err := l.Charge("d", 0.5, "key-1", "d-v1")
	if err != nil || spend.Replayed() || spend.ModelID() != "d-v1" {
		t.Fatalf("first keyed charge: %+v, err=%v", spend, err)
	}
	// Same key, same parameters: no second spend, original model id.
	spend, err = l.Charge("d", 0.5, "key-1", "d-v2")
	if err != nil || !spend.Replayed() || spend.ModelID() != "d-v1" {
		t.Fatalf("duplicate keyed charge: %+v, err=%v", spend, err)
	}
	if e := l.Get("d"); e.Spent != 0.5 {
		t.Fatalf("spent after duplicate = %g, want 0.5", e.Spent)
	}
	// Same key, different parameters: typed rejection.
	if _, err := l.Charge("d", 0.9, "key-1", ""); !errors.Is(err, ErrIdempotencyMismatch) {
		t.Fatalf("mismatched key reuse: %v", err)
	}
	// Force several compactions; the key must survive checkpoints.
	for i := 0; i < 6; i++ {
		if _, err := l.Charge("filler", 0.1, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	spend, err = l2.Charge("d", 0.5, "key-1", "d-v3")
	if err != nil || !spend.Replayed() || spend.ModelID() != "d-v1" {
		t.Fatalf("keyed charge after restart: %+v, err=%v", spend, err)
	}
	if e := l2.Get("d"); e.Spent != 0.5 {
		t.Fatalf("spent after restart retry = %g, want 0.5", e.Spent)
	}
	// A replay never refunds: the run that charged may have released
	// its model.
	if err := spend.Refund(); err != nil {
		t.Fatal(err)
	}
	if e := l2.Get("d"); e.Spent != 0.5 {
		t.Fatalf("spent after refunding a replay = %g, want 0.5", e.Spent)
	}
	if again, err := l2.Charge("d", 0.5, "key-1", "d-v4"); err != nil || !again.Replayed() {
		t.Fatalf("key after refunding a replay: %+v, err=%v, want a replay", again, err)
	}
	// Refunding a fresh keyed charge forgets the key: the next keyed
	// charge pays, under its own model id.
	spend, err = l2.Charge("d", 0.25, "key-2", "d-v5")
	if err != nil {
		t.Fatal(err)
	}
	if err := spend.Refund(); err != nil {
		t.Fatal(err)
	}
	spend, err = l2.Charge("d", 0.25, "key-2", "d-v6")
	if err != nil || spend.Replayed() || spend.ModelID() != "d-v6" {
		t.Fatalf("keyed charge after refund: %+v, err=%v", spend, err)
	}
	if e := l2.Get("d"); e.Spent != 0.75 {
		t.Fatalf("spent after refund+recharge = %g, want 0.75", e.Spent)
	}
}

// TestKeyEvictionFIFOAcrossCheckpoint: the idempotency-key history
// evicts its oldest key first, also after the keys were folded into a
// checkpoint and replayed by a restart. The keys are named in reverse,
// so sorted order is not charge order.
func TestKeyEvictionFIFOAcrossCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenWAL(path, 1e9, Options{CompactEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return fmt.Sprintf("k%05d", maxIdemKeys-1-i) }
	for i := 0; i < maxIdemKeys; i++ {
		if _, err := l.Charge("d", 0.001, key(i), "m-"+key(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, err := OpenWAL(path, 1e9, Options{CompactEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.Charge("d", 0.001, "k-new", "m-new"); err != nil {
		t.Fatal(err)
	}
	if spend, err := l2.Charge("d", 0.001, key(1), "other"); err != nil || !spend.Replayed() {
		t.Fatalf("second-oldest key %s: %+v, err=%v, want a replay", key(1), spend, err)
	}
	if spend, err := l2.Charge("d", 0.001, key(0), "other"); err != nil || spend.Replayed() {
		t.Fatalf("oldest key %s: %+v, err=%v, want it evicted and charged afresh", key(0), spend, err)
	}
}

// TestCheckpointWithoutKeyOrderReplaysSorted: a checkpoint that
// records no key order replays its keys in sorted order, so which key a
// restart evicts first does not depend on map iteration.
func TestCheckpointWithoutKeyOrderReplaysSorted(t *testing.T) {
	keys := map[string]keyInfo{}
	for i := 0; i < maxIdemKeys; i++ {
		keys[fmt.Sprintf("k%05d", i)] = keyInfo{Dataset: "d", Eps: 0.001}
	}
	payload, err := json.Marshal(walRecord{Op: opCheckpoint, Version: walVersion,
		Datasets: map[string]Entry{"d": {Spent: 4.096, Budget: 1e9}}, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ledger")
	writeRecords(t, path, payload)
	l, err := OpenWAL(path, 1e9, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Charge("d", 0.001, "k-new", ""); err != nil {
		t.Fatal(err)
	}
	if spend, err := l.Charge("d", 0.001, "k00001", ""); err != nil || !spend.Replayed() {
		t.Fatalf("k00001: %+v, err=%v, want a replay", spend, err)
	}
	if spend, err := l.Charge("d", 0.001, "k00000", ""); err != nil || spend.Replayed() {
		t.Fatalf("k00000: %+v, err=%v, want it evicted and charged afresh", spend, err)
	}
}

func TestWALCompactionBoundsFileSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenWAL(path, 1e9, Options{CompactEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := l.Charge("hot", 0.001, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// 500 records ≈ 60+ KiB uncompacted; the checkpointed log stays
	// within a couple of records of the threshold.
	if fi.Size() > 4096 {
		t.Fatalf("log size %d bytes — compaction not bounding growth", fi.Size())
	}
	l2, err := OpenWAL(path, 1e9, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if e := l2.Get("hot"); math.Abs(e.Spent-0.5) > 1e-9 {
		t.Errorf("spent after compacted recovery = %g, want 0.5", e.Spent)
	}
}

func TestCorruptLedgerRefusedThenFsck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenWAL(path, 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"a", "b", "c"} {
		if _, err := l.Charge(ds, 0.25, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Flip a byte inside the SECOND record's payload (mid-file).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(raw) / 2
	raw[mid] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = OpenWAL(path, 2.0, Options{})
	if !errors.Is(err, ErrLedgerCorrupt) {
		t.Fatalf("corrupt ledger open: %v, want ErrLedgerCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Offset <= 0 {
		t.Fatalf("err = %#v, want *CorruptError with positive offset", err)
	}

	// Fsck: open succeeds, keeping everything before the damage.
	l2, err := OpenWAL(path, 2.0, Options{Fsck: true})
	if err != nil {
		t.Fatalf("fsck open: %v", err)
	}
	defer l2.Close()
	if e := l2.Get("a"); e.Spent != 0.25 {
		t.Errorf("a after fsck = %+v", e)
	}
}

// ledgerModel is the pure in-memory reference the crash sweep compares
// recovered state against.
type ledgerModel struct {
	def      float64
	datasets map[string]Entry
}

func newModel(def float64) *ledgerModel {
	return &ledgerModel{def: def, datasets: map[string]Entry{}}
}

func (m *ledgerModel) entry(ds string) Entry {
	if e, ok := m.datasets[ds]; ok {
		return e
	}
	return Entry{Budget: m.def}
}

// op is one scripted ledger mutation.
type op struct {
	kind    string // "charge", "refund", "budget", "idem"
	dataset string
	eps     float64
	key     string
	of      int // refund: the script index of the charge it returns
}

func (m *ledgerModel) apply(o op) {
	e := m.entry(o.dataset)
	switch o.kind {
	case "charge", "idem":
		e.Spent += o.eps
	case "refund":
		e.Spent -= o.eps
		if e.Spent < 0 {
			e.Spent = 0
		}
	case "budget":
		e.Budget = o.eps
	}
	m.datasets[o.dataset] = e
}

func (m *ledgerModel) equal(snap map[string]Entry) bool {
	if len(m.datasets) != len(snap) {
		return false
	}
	for ds, e := range m.datasets {
		g, ok := snap[ds]
		if !ok || math.Abs(g.Spent-e.Spent) > 1e-12 || g.Budget != e.Budget {
			return false
		}
	}
	return true
}

// crashScript is the workload the sweep replays: enough mutations to
// cross the compaction threshold twice, an idempotent charge on its own
// dataset, and refunds of a keyed and a keyless charge. A refund op
// repeats the dataset and ε of the charge it returns.
var crashScript = []op{
	{kind: "charge", dataset: "a", eps: 0.3},
	{kind: "budget", dataset: "b", eps: 4.0},
	{kind: "charge", dataset: "b", eps: 1.5},
	{kind: "idem", dataset: "idem-ds", eps: 0.7, key: "fit-key-1"},
	{kind: "idem", dataset: "a", eps: 0.1, key: "fit-key-2"},
	{kind: "refund", dataset: "a", eps: 0.1, of: 4},
	{kind: "charge", dataset: "a", eps: 0.4},
	{kind: "charge", dataset: "b", eps: 0.5},
	{kind: "refund", dataset: "b", eps: 0.5, of: 7},
	{kind: "charge", dataset: "c", eps: 1.0},
	{kind: "budget", dataset: "c", eps: 3.0},
}

// runScript executes the script against a ledger opened on fs,
// returning how many ops were acknowledged and the first
// persistence-failure op index (-1 if none).
func runScript(fs faultfs.FS, path string) (committed int, inflight int) {
	inflight = -1
	l, err := OpenWAL(path, 2.0, Options{FS: fs, CompactEvery: 4})
	if err != nil {
		return 0, -1 // crash during open/recovery: nothing committed this run
	}
	defer l.Close()
	spends := make([]*Spend, len(crashScript))
	for i, o := range crashScript {
		var err error
		switch o.kind {
		case "charge", "idem":
			spends[i], err = l.Charge(o.dataset, o.eps, o.key, "m-"+o.dataset)
		case "refund":
			err = spends[o.of].Refund()
		case "budget":
			err = l.SetBudget(o.dataset, o.eps)
		}
		if err != nil {
			if errors.Is(err, ErrPersist) && inflight == -1 {
				inflight = i
			}
			return committed, inflight
		}
		committed = i + 1
	}
	return committed, inflight
}

// TestCrashSweepLedger is the fault-injection crash harness over the
// whole ledger stack: for every mutating filesystem operation in the
// workload (append, sync, compaction temp/rename/dir-sync, close), with
// and without torn final writes, crash there, recover with the real
// filesystem, and assert the recovered ledger equals replaying exactly
// the acknowledged ops — or those plus the single in-flight op (durable
// but unacknowledged is the allowed, conservative direction). Then
// retry the idempotent charge and assert it never double-spends.
func TestCrashSweepLedger(t *testing.T) {
	probe := faultfs.NewFault(nil)
	dir := t.TempDir()
	if c, _ := runScript(probe, filepath.Join(dir, "probe-ledger")); c != len(crashScript) {
		t.Fatalf("probe run committed %d of %d ops", c, len(crashScript))
	}
	total := probe.Ops()
	if total < 20 {
		t.Fatalf("workload has only %d crash points, want >= 20", total)
	}
	t.Logf("sweeping %d crash points × {clean, torn}", total)

	for _, torn := range []bool{false, true} {
		for n := int64(1); n <= total; n++ {
			path := filepath.Join(t.TempDir(), "ledger")
			fault := faultfs.NewFault(nil)
			fault.CrashAt(n, torn)
			committed, inflight := runScript(fault, path)
			if !fault.Crashed() {
				t.Fatalf("crash point %d never reached", n)
			}

			rec, err := OpenWAL(path, 2.0, Options{})
			if err != nil {
				t.Fatalf("torn=%v crash at op %d: recovery failed: %v", torn, n, err)
			}
			snap := rec.Snapshot()

			want := newModel(2.0)
			for i := 0; i < committed; i++ {
				want.apply(crashScript[i])
			}
			ok := want.equal(snap)
			if !ok && inflight >= 0 {
				// The in-flight mutation reached disk before the crash:
				// allowed (never under-counts a charge the caller was
				// not told about — it was never acknowledged either).
				want.apply(crashScript[inflight])
				ok = want.equal(snap)
			}
			if !ok {
				t.Fatalf("torn=%v crash at fs-op %d: recovered %+v inconsistent with committed prefix %d (inflight %d)",
					torn, n, snap, committed, inflight)
			}

			// Exactly-once under retry: re-issue the idempotent charge.
			// Whether or not the original survived, idem-ds ends at
			// exactly one charge's worth of spend.
			if _, err := rec.Charge("idem-ds", 0.7, "fit-key-1", "m-idem-ds"); err != nil {
				t.Fatalf("torn=%v crash at op %d: idempotent retry: %v", torn, n, err)
			}
			if e := rec.Get("idem-ds"); math.Abs(e.Spent-0.7) > 1e-12 {
				t.Fatalf("torn=%v crash at op %d: idem-ds spent %g after retry, want exactly 0.7", torn, n, e.Spent)
			}
			rec.Close()
		}
	}
}

// TestCrashSweepLegacyMigration crashes at every point of the
// legacy-JSON → WAL migration: recovery must always yield either the
// legacy state (migration reruns) — never a torn in-between.
func TestCrashSweepLegacyMigration(t *testing.T) {
	probePath := writeLegacyLedger(t)
	probe := faultfs.NewFault(nil)
	if l, err := OpenWAL(probePath, 2.0, Options{FS: probe}); err != nil {
		t.Fatal(err)
	} else {
		l.Close()
	}
	total := probe.Ops()

	for n := int64(1); n <= total; n++ {
		path := writeLegacyLedger(t)
		fault := faultfs.NewFault(nil)
		fault.CrashAt(n, true)
		if l, err := OpenWAL(path, 2.0, Options{FS: fault}); err == nil {
			l.Close()
		}
		// Recover for real.
		l, err := OpenWAL(path, 2.0, Options{})
		if err != nil {
			t.Fatalf("crash at op %d: post-crash open: %v", n, err)
		}
		if e := l.Get("survey"); e.Spent != 0.7 {
			t.Fatalf("crash at op %d: survey = %+v", n, e)
		}
		if e := l.Get("other"); e.Budget != 9.0 {
			t.Fatalf("crash at op %d: other = %+v", n, e)
		}
		l.Close()
	}
}

// TestConcurrentChargesDuringCompaction hammers a WAL ledger with
// racing charges while a tiny compaction threshold keeps checkpointing
// concurrently (run under -race via make race). The total must come out
// exact and survive recovery.
func TestConcurrentChargesDuringCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenWAL(path, 1e9, Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 16, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ds := []string{"alpha", "beta", "gamma"}[w%3]
			for i := 0; i < perWorker; i++ {
				if _, err := l.Charge(ds, 0.01, "", ""); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var sum float64
	for _, e := range l.Snapshot() {
		sum += e.Spent
	}
	if want := workers * perWorker * 0.01; math.Abs(sum-want) > 1e-9 {
		t.Fatalf("total spent %g, want %g", sum, want)
	}
	snap := l.Snapshot()
	l.Close()

	l2, err := OpenWAL(path, 1e9, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for ds, e := range snap {
		if g := l2.Get(ds); math.Abs(g.Spent-e.Spent) > 1e-12 {
			t.Errorf("recovered %s = %+v, want %+v", ds, g, e)
		}
	}
}
