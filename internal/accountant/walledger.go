package accountant

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"privbayes/internal/faultfs"
	"privbayes/internal/wal"
)

// walRecord is one ledger mutation (or checkpoint) as persisted in the
// write-ahead log. Mutation records carry the dataset's POST-state
// (Spent/Budget after the mutation), so replay is a pure assignment —
// insensitive to default-budget flag changes between runs and immune to
// clamping/rounding drift.
type walRecord struct {
	Op      string  `json:"op"`
	Dataset string  `json:"dataset,omitempty"`
	Eps     float64 `json:"eps,omitempty"`
	Key     string  `json:"key,omitempty"`
	ModelID string  `json:"model_id,omitempty"`
	Spent   float64 `json:"spent,omitempty"`
	Budget  float64 `json:"budget,omitempty"`

	// Checkpoint payload: the whole ledger state. KeyOrder lists Keys
	// oldest first, so eviction stays FIFO across a restart; a
	// checkpoint without it replays its keys in sorted order.
	Version  int                `json:"version,omitempty"`
	Datasets map[string]Entry   `json:"datasets,omitempty"`
	Keys     map[string]keyInfo `json:"keys,omitempty"`
	KeyOrder []string           `json:"key_order,omitempty"`
}

const (
	opCharge     = "charge"
	opRefund     = "refund"
	opBudget     = "budget"
	opCheckpoint = "checkpoint"
)

// walVersion guards the checkpoint format inside WAL records.
const walVersion = 2

// DefaultCompactEvery is the record count that triggers automatic log
// compaction into a checkpoint.
const DefaultCompactEvery = 1024

// Options configures OpenWAL.
type Options struct {
	// FS is the filesystem seam; nil selects the real filesystem.
	FS faultfs.FS
	// Fsck truncates the ledger at the first corrupt record instead of
	// refusing to open — operator-driven repair (privbayesd
	// -ledger-fsck). Records from the damage onward are lost.
	Fsck bool
	// CompactEvery overrides DefaultCompactEvery; <= 0 selects it.
	CompactEvery int
	// Logf, when set, receives operational notes (recovery truncation,
	// compaction failures).
	Logf func(format string, args ...any)
}

// OpenWAL opens (or creates) a WAL-backed ledger at path. Existing
// legacy JSON ledgers are migrated in place atomically, so pointing a
// new daemon at an old ledger file keeps every recorded ε spend. A
// corrupt log fails with a *CorruptError matching ErrLedgerCorrupt
// unless opts.Fsck sanctions truncating at the damage.
func OpenWAL(path string, defaultBudget float64, opts Options) (*Ledger, error) {
	if !(defaultBudget > 0) {
		return nil, fmt.Errorf("accountant: default budget must be positive, got %g", defaultBudget)
	}
	fs := faultfs.Or(opts.FS)
	l := &Ledger{
		path:          path,
		defaultBudget: defaultBudget,
		datasets:      map[string]Entry{},
		keys:          map[string]keyInfo{},
		compactEvery:  opts.CompactEvery,
		logf:          opts.Logf,
	}
	if l.compactEvery <= 0 {
		l.compactEvery = DefaultCompactEvery
	}

	if raw, err := fs.ReadFile(path); err == nil && looksLegacyJSON(raw) {
		if err := migrateLegacy(fs, path, raw, defaultBudget); err != nil {
			return nil, err
		}
		l.notef("migrated legacy JSON ledger %s to WAL format", path)
	}

	log, err := wal.Open(path, wal.Options{FS: fs, Fsck: opts.Fsck}, l.applyRecord)
	if err != nil {
		var ce *wal.CorruptError
		if errors.As(err, &ce) {
			return nil, &CorruptError{Path: ce.Path, Offset: ce.Offset, Reason: ce.Reason}
		}
		return nil, err
	}
	if n := log.Truncated(); n > 0 {
		l.notef("ledger %s: dropped %d torn/corrupt byte(s) during recovery", path, n)
	}
	l.log = log
	l.maybeCompactLocked() // a long log from a previous run compacts now
	return l, nil
}

// notef logs when a logger was configured.
func (l *Ledger) notef(format string, args ...any) {
	if l.logf != nil {
		l.logf(format, args...)
	}
}

// looksLegacyJSON reports whether raw is (the start of) a legacy JSON
// ledger document rather than a WAL.
func looksLegacyJSON(raw []byte) bool {
	for _, b := range raw {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			return true
		default:
			return false
		}
	}
	return false
}

// migrateLegacy converts a legacy JSON ledger into a fresh WAL holding
// one checkpoint record, atomically: the new log is built beside the
// old file and renamed over it, so a crash at any point leaves either
// the intact legacy file (migration simply reruns) or the complete WAL.
func migrateLegacy(fs faultfs.FS, path string, raw []byte, defaultBudget float64) error {
	entries, err := parseLegacy(path, raw)
	if err != nil {
		return err
	}
	tmp := path + ".migrate"
	// A previous crashed migration may have left a partial temp log.
	if err := fs.Remove(tmp); err != nil && !isNotExist(err) {
		return fmt.Errorf("accountant: clear stale migration file: %w", err)
	}
	log, err := wal.Open(tmp, wal.Options{FS: fs}, func(int64, []byte) error {
		return errors.New("accountant: fresh migration log is not empty")
	})
	if err != nil {
		return fmt.Errorf("accountant: migrate ledger: %w", err)
	}
	payload, err := json.Marshal(walRecord{Op: opCheckpoint, Version: walVersion,
		Datasets: entries, Keys: map[string]keyInfo{}})
	if err != nil {
		log.Close()
		return fmt.Errorf("accountant: migrate ledger: %w", err)
	}
	if err := log.Append(payload); err != nil {
		log.Close()
		return fmt.Errorf("accountant: migrate ledger: %w", err)
	}
	if err := log.Close(); err != nil {
		return fmt.Errorf("accountant: migrate ledger: %w", err)
	}
	if err := fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("accountant: migrate ledger: %w", err)
	}
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("accountant: migrate ledger: %w", err)
	}
	return nil
}

func isNotExist(err error) bool { return errors.Is(err, os.ErrNotExist) }

// applyRecord replays one WAL record into the in-memory state. Any
// undecodable or semantically invalid record is corruption: its bytes
// passed the checksum, so the writer and reader disagree — fail closed.
func (l *Ledger) applyRecord(offset int64, payload []byte) error {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return &CorruptError{Path: l.path, Offset: offset,
			Reason: fmt.Sprintf("undecodable record: %v", err)}
	}
	bad := func(reason string) error {
		return &CorruptError{Path: l.path, Offset: offset, Reason: reason}
	}
	switch rec.Op {
	case opCharge, opRefund, opBudget:
		if rec.Dataset == "" {
			return bad(rec.Op + " record without dataset")
		}
		e := Entry{Spent: rec.Spent, Budget: rec.Budget}
		if !e.valid() {
			return bad(fmt.Sprintf("%s record with invalid state (spent %g, budget %g)", rec.Op, rec.Spent, rec.Budget))
		}
		l.datasets[rec.Dataset] = e
		if rec.Key != "" {
			switch rec.Op {
			case opCharge:
				l.addKeyLocked(rec.Key, keyInfo{Dataset: rec.Dataset, Eps: rec.Eps, ModelID: rec.ModelID})
			case opRefund:
				l.dropKeyLocked(rec.Key)
			}
		}
	case opCheckpoint:
		if rec.Version != walVersion {
			return bad(fmt.Sprintf("checkpoint version %d (want %d)", rec.Version, walVersion))
		}
		l.datasets = map[string]Entry{}
		l.keys = map[string]keyInfo{}
		l.keyOrder = l.keyOrder[:0]
		for id, e := range rec.Datasets {
			if !e.valid() {
				return bad(fmt.Sprintf("checkpoint dataset %q has invalid entry (spent %g, budget %g)", id, e.Spent, e.Budget))
			}
			l.datasets[id] = e
		}
		order := rec.KeyOrder
		if order == nil {
			order = slices.Sorted(maps.Keys(rec.Keys))
		}
		if len(order) != len(rec.Keys) {
			return bad(fmt.Sprintf("checkpoint orders %d of its %d keys", len(order), len(rec.Keys)))
		}
		for _, k := range order {
			info, ok := rec.Keys[k]
			if !ok {
				return bad(fmt.Sprintf("checkpoint key order names unknown key %q", k))
			}
			l.addKeyLocked(k, info)
		}
	default:
		return bad(fmt.Sprintf("unknown record op %q", rec.Op))
	}
	return nil
}

// maybeCompactLocked folds the log into one checkpoint record once it
// holds compactEvery records. Failure is logged, never fatal: the
// triggering mutation is already durable in the uncompacted log, and
// compaction retries at the next threshold crossing. Callers hold l.mu
// (or are inside OpenWAL before the ledger is shared).
func (l *Ledger) maybeCompactLocked() {
	if l.log == nil || l.log.Records() < l.compactEvery {
		return
	}
	payload, err := json.Marshal(walRecord{Op: opCheckpoint, Version: walVersion,
		Datasets: l.datasets, Keys: l.keys, KeyOrder: l.keyOrder})
	if err != nil {
		l.notef("ledger compaction: encode checkpoint: %v", err)
		return
	}
	if err := l.log.Compact(payload); err != nil {
		l.notef("ledger compaction: %v", err)
	}
}
