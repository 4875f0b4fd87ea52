package accountant

import (
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"privbayes/internal/wal"
)

// writeRecords writes each non-empty payload to a fresh WAL at path as
// one record, so every payload passes the log's checksum and reaches
// the ledger's record decoder.
func writeRecords(t testing.TB, path string, payloads ...[]byte) {
	t.Helper()
	log, err := wal.Open(path, wal.Options{}, func(int64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, p := range payloads {
		if len(p) == 0 {
			continue
		}
		if err := log.Append(p); err != nil {
			t.Fatal(err)
		}
	}
}

func mustRecord(f *testing.F, rec walRecord) string {
	raw, err := json.Marshal(rec)
	if err != nil {
		f.Fatal(err)
	}
	return string(raw)
}

// FuzzLedgerReplay drives OpenWAL's record decoder with fuzzed records:
// the input's lines are written as WAL records, one each. OpenWAL must
// never panic. It either refuses the log or returns a ledger whose
// every entry is a finite spend of at least zero against a finite
// positive budget, holding at most maxIdemKeys idempotency keys; a log
// holding a budget record it must refuse as corrupt. A compaction
// threshold of 2 makes a log of two records or more compact on open, so
// the checkpoint encoder sees the replayed state too.
func FuzzLedgerReplay(f *testing.F) {
	charge := mustRecord(f, walRecord{Op: opCharge, Dataset: "d", Eps: 0.5, Key: "k1", ModelID: "d-fit-1", Spent: 0.5, Budget: 1})
	refund := mustRecord(f, walRecord{Op: opRefund, Dataset: "d", Eps: 0.5, Key: "k1", Budget: 1})
	// A budget record, which no ledger writes, must be refused.
	budget := mustRecord(f, walRecord{Op: "budget", Dataset: "e", Spent: 0.25, Budget: 3})
	checkpoint := mustRecord(f, walRecord{Op: opCheckpoint, Version: walVersion,
		Datasets: map[string]Entry{"d": {Spent: 0.5, Budget: 1}},
		Keys:     map[string]keyInfo{"k1": {Dataset: "d", Eps: 0.5, ModelID: "d-fit-1"}},
		KeyOrder: []string{"k1"}})
	f.Add(charge)
	f.Add(charge + "\n" + refund)
	f.Add(budget + "\n" + charge + "\n" + refund)
	f.Add(checkpoint + "\n" + charge)
	f.Add(strings.Replace(checkpoint, `"key_order":["k1"]`, `"key_order":["k2"]`, 1))
	f.Add(strings.Replace(charge, `"spent":0.5`, `"spent":-1`, 1))
	f.Add(`{"op":"charge"}`)
	f.Add("not json")

	f.Fuzz(func(t *testing.T, records string) {
		var payloads [][]byte
		for _, line := range strings.SplitN(records, "\n", 64) {
			payloads = append(payloads, []byte(line))
		}
		budget := false
		for _, p := range payloads {
			var rec walRecord
			budget = budget || json.Unmarshal(p, &rec) == nil && rec.Op == "budget"
		}
		path := filepath.Join(t.TempDir(), "ledger")
		writeRecords(t, path, payloads...)
		l, err := OpenWAL(path, 1, Options{CompactEvery: 2})
		if budget && !errors.Is(err, ErrLedgerCorrupt) {
			t.Fatalf("log with a budget record: err = %v, want ErrLedgerCorrupt", err)
		}
		if err != nil {
			return
		}
		defer l.Close()
		for id, e := range l.Snapshot() {
			if !(e.Spent >= 0) || math.IsInf(e.Spent, 0) || !(e.Budget > 0) || math.IsInf(e.Budget, 0) {
				t.Fatalf("dataset %q replayed to spent %g, budget %g", id, e.Spent, e.Budget)
			}
		}
		if len(l.keys) > maxIdemKeys || len(l.keys) != len(l.keyOrder) {
			t.Fatalf("%d keys in a history of %d, cap %d", len(l.keys), len(l.keyOrder), maxIdemKeys)
		}
	})
}
