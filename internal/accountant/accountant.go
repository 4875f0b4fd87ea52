// Package accountant tracks cumulative differential-privacy spending
// per dataset across fits. One PrivBayes run splits its ε into ε₁ + ε₂
// inside a single Fit; this ledger budgets a *dataset* across its
// lifetime: every model the curator fits against dataset D composes
// sequentially, so the serving daemon must refuse a fit whose ε would
// push D's cumulative spend past its budget.
//
// Every fit spends through one call, Charge, whose record names the
// model it pays for. The returned Spend owns the one refund rule: a fit
// that ends before its model is released refunds, unless its charge
// replays an earlier run's, which may already have released the model.
//
// A file-backed ledger (OpenWAL) commits every mutation through an
// append-only, checksummed, fsync'd write-ahead log (internal/wal)
// before acknowledging it, so a crash at any instant — kill -9
// mid-append included — can never lose an acknowledged charge nor
// double-spend ε on recovery; the log compacts itself into checkpoints
// as it grows, and charges may carry an idempotency key so a retried
// fit after an ambiguous failure charges exactly once even across a
// crash and restart. The log holds three kinds of record: charge,
// refund and checkpoint; a file that is not such a log is refused as
// corrupt.
package accountant

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"privbayes/internal/wal"
)

// ErrBudgetExceeded tags every charge rejected by a ledger; match with
// errors.Is. The concrete error is a *BudgetError carrying the numbers.
var ErrBudgetExceeded = errors.New("accountant: privacy budget exceeded")

// ErrPersist tags failures to make a ledger mutation durable (disk
// full, permissions). These are server-side faults, not caller errors.
var ErrPersist = errors.New("accountant: ledger persistence failed")

// ErrLedgerCorrupt tags recovery failures where the ledger file exists
// but cannot be trusted; match with errors.Is. The concrete error is a
// *CorruptError carrying the byte offset of the damage. The daemon must
// refuse to serve on this error — guessing at ε spend fails open.
var ErrLedgerCorrupt = errors.New("accountant: ledger corrupt")

// ErrIdempotencyMismatch is returned when an idempotency key is reused
// with a different dataset or ε than the charge it originally named.
var ErrIdempotencyMismatch = errors.New("accountant: idempotency key reused with different parameters")

// CorruptError reports ledger damage recovery refused to repair
// silently. Opening with Options.Fsck truncates the log at Offset
// instead, sacrificing records from the damage onward.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("accountant: ledger %s corrupt at byte %d: %s", e.Path, e.Offset, e.Reason)
}

// Is makes errors.Is(err, ErrLedgerCorrupt) match.
func (e *CorruptError) Is(target error) bool { return target == ErrLedgerCorrupt }

// BudgetError reports a rejected charge.
type BudgetError struct {
	Dataset   string
	Requested float64
	Spent     float64
	Budget    float64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("accountant: dataset %q: spending ε=%g would exceed budget (spent %g of %g)",
		e.Dataset, e.Requested, e.Spent, e.Budget)
}

// Is makes errors.Is(err, ErrBudgetExceeded) match.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// Entry is one dataset's standing in the ledger.
type Entry struct {
	// Spent is the cumulative ε of every fit acknowledged so far.
	Spent float64 `json:"spent"`
	// Budget is the dataset's total ε allowance.
	Budget float64 `json:"budget"`
}

// valid reports whether a recovered entry can be trusted: a finite
// spend of at least zero against a finite positive budget.
func (e Entry) valid() bool {
	return e.Spent >= 0 && !math.IsInf(e.Spent, 1) && e.Budget > 0 && !math.IsInf(e.Budget, 1)
}

// Remaining returns the unused budget, never negative.
func (e Entry) Remaining() float64 {
	if r := e.Budget - e.Spent; r > 0 {
		return r
	}
	return 0
}

// Ledger is a concurrency-safe sequential-composition ledger of ε per
// dataset id. All mutations are serialized and — when the ledger is
// file-backed — durably persisted before they are acknowledged, so a
// crash can lose an unacknowledged charge (conservative: the budget is
// never under-counted) but never an acknowledged one.
type Ledger struct {
	mu            sync.Mutex
	path          string // "" = in-memory only
	defaultBudget float64
	datasets      map[string]Entry

	// WAL mode (OpenWAL): every mutation appends one fsync'd record.
	log          *wal.Log
	compactEvery int
	logf         func(format string, args ...any)

	// keys maps idempotency keys to their recorded charge, surviving
	// compaction (checkpointed) and restarts (replayed). keyOrder is
	// FIFO so the map stays bounded at maxIdemKeys.
	keys     map[string]keyInfo
	keyOrder []string

	// m instruments mutations; nil means uninstrumented (see Instrument).
	m *Metrics
}

// keyInfo records the charge an idempotency key committed.
type keyInfo struct {
	Dataset string  `json:"dataset"`
	Eps     float64 `json:"eps"`
	// ModelID is the model the charged fit was going to register, so a
	// post-crash retry can find (or recreate) it without re-charging.
	ModelID string `json:"model_id,omitempty"`
}

// maxIdemKeys bounds the idempotency-key history; the oldest keys are
// forgotten first, after which a very stale retry would charge again.
const maxIdemKeys = 4096

// New creates an in-memory ledger. A dataset's first charge records
// defaultBudget, which must be positive, as its budget.
func New(defaultBudget float64) *Ledger {
	if !(defaultBudget > 0) {
		panic(fmt.Sprintf("accountant: default budget must be positive, got %g", defaultBudget))
	}
	return &Ledger{defaultBudget: defaultBudget,
		datasets: map[string]Entry{}, keys: map[string]keyInfo{}}
}

// entryLocked returns the dataset's entry, materializing the default
// budget for first contact. Callers hold l.mu.
func (l *Ledger) entryLocked(dataset string) Entry {
	if e, ok := l.datasets[dataset]; ok {
		return e
	}
	return Entry{Budget: l.defaultBudget}
}

// chargeTol absorbs floating-point dust when a budget is consumed in
// many equal shares.
const chargeTol = 1e-9

// Charge atomically spends eps from the dataset's budget: the check,
// the ledger update, and the persistence to disk happen under one lock,
// so concurrent fits racing on one dataset can never jointly overspend.
// A rejected charge leaves the ledger untouched and returns a
// *BudgetError matching ErrBudgetExceeded.
//
// modelID names the model the charge pays for and rides in the charge's
// WAL record. A non-empty key makes the charge exactly-once under
// retries: the first charge under key commits durably along with key
// and modelID; any later charge under the same key (same dataset and ε)
// spends nothing and returns a replayed Spend naming the originally
// recorded model — across process restarts too, because the key rides
// in the WAL record and every checkpoint. Reusing a key with different
// parameters fails with ErrIdempotencyMismatch.
func (l *Ledger) Charge(dataset string, eps float64, key, modelID string) (*Spend, error) {
	if dataset == "" {
		return nil, errors.New("accountant: empty dataset id")
	}
	if !(eps > 0) || math.IsInf(eps, 1) {
		return nil, fmt.Errorf("accountant: charge must be positive and finite, got %g", eps)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	spend := &Spend{l: l, dataset: dataset, eps: eps, key: key, modelID: modelID}
	if key != "" {
		if info, ok := l.keys[key]; ok {
			if info.Dataset != dataset || math.Abs(info.Eps-eps) > chargeTol {
				return nil, fmt.Errorf("%w: key %q charged dataset %q ε=%g, retried with dataset %q ε=%g",
					ErrIdempotencyMismatch, key, info.Dataset, info.Eps, dataset, eps)
			}
			l.m.replayHit()
			spend.modelID, spend.replay = info.ModelID, true
			return spend, nil
		}
	}
	e := l.entryLocked(dataset)
	if e.Spent+eps > e.Budget*(1+chargeTol) {
		l.m.chargeRejected()
		return nil, &BudgetError{Dataset: dataset, Requested: eps, Spent: e.Spent, Budget: e.Budget}
	}
	e.Spent += eps
	l.datasets[dataset] = e
	if key != "" {
		l.addKeyLocked(key, keyInfo{Dataset: dataset, Eps: eps, ModelID: modelID})
	}
	rec := walRecord{Op: opCharge, Dataset: dataset, Eps: eps, Key: key, ModelID: modelID,
		Spent: e.Spent, Budget: e.Budget}
	if err := l.commitLocked(rec); err != nil {
		// Roll back: a charge that cannot be made durable is not
		// acknowledged, so the caller must not release the fit.
		e.Spent -= eps
		l.datasets[dataset] = e
		if key != "" {
			l.dropKeyLocked(key)
		}
		return nil, err
	}
	l.m.chargeCommitted(dataset, eps, e)
	return spend, nil
}

// Spend is one acknowledged charge, and it owns the charge's refund
// rule. A caller charges, defers Refund, and calls Keep once the model
// the charge pays for is released; every path that ends before then
// returns the ε, unless the charge is a replay (see Refund). A Spend is
// not safe for concurrent use.
type Spend struct {
	l       *Ledger
	dataset string
	eps     float64
	key     string
	modelID string
	replay  bool
	settled bool // kept or refunded
}

// ModelID returns the model the charge names: the one recorded under
// the key when the charge replays.
func (s *Spend) ModelID() string { return s.modelID }

// Replayed reports whether the charge replays one recorded earlier
// under the same key; a replay spent nothing.
func (s *Spend) Replayed() bool { return s.replay }

// Keep marks the charge as released: its model may be served, so a
// later Refund does nothing.
func (s *Spend) Keep() { s.settled = true }

// Refund returns the ε after a fit that released nothing (sequential
// composition only charges for released outputs) and forgets the key,
// so a retry under it charges and runs afresh. It does nothing on a nil
// Spend, after Keep or a successful Refund, and when the charge replays
// an earlier one: the run that made that charge may already have
// released its model. Refunding more than was spent clamps to zero.
func (s *Spend) Refund() error {
	if s == nil || s.settled || s.replay {
		return nil
	}
	l := s.l
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entryLocked(s.dataset)
	prev := e.Spent
	prevKey, hadKey := l.keys[s.key]
	e.Spent -= s.eps
	if e.Spent < 0 {
		e.Spent = 0
	}
	l.datasets[s.dataset] = e
	if s.key != "" {
		l.dropKeyLocked(s.key)
	}
	rec := walRecord{Op: opRefund, Dataset: s.dataset, Eps: s.eps, Key: s.key,
		Spent: e.Spent, Budget: e.Budget}
	if err := l.commitLocked(rec); err != nil {
		e.Spent = prev
		l.datasets[s.dataset] = e
		if s.key != "" && hadKey {
			l.addKeyLocked(s.key, prevKey)
		}
		return err
	}
	l.m.refundCommitted(s.dataset, s.eps, e)
	s.settled = true
	return nil
}

// addKeyLocked records key, evicting the oldest when over cap.
func (l *Ledger) addKeyLocked(key string, info keyInfo) {
	if _, ok := l.keys[key]; !ok {
		l.keyOrder = append(l.keyOrder, key)
	}
	l.keys[key] = info
	for len(l.keyOrder) > maxIdemKeys {
		old := l.keyOrder[0]
		l.keyOrder = l.keyOrder[1:]
		delete(l.keys, old)
	}
}

// dropKeyLocked forgets key (rollbacks and refunds).
func (l *Ledger) dropKeyLocked(key string) {
	if _, ok := l.keys[key]; !ok {
		return
	}
	delete(l.keys, key)
	for i, k := range l.keyOrder {
		if k == key {
			l.keyOrder = append(l.keyOrder[:i], l.keyOrder[i+1:]...)
			break
		}
	}
}

// Get returns the dataset's standing; unseen datasets report zero spend
// against the default budget.
func (l *Ledger) Get(dataset string) Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entryLocked(dataset)
}

// Snapshot returns a copy of every recorded dataset entry.
func (l *Ledger) Snapshot() map[string]Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]Entry, len(l.datasets))
	for id, e := range l.datasets {
		out[id] = e
	}
	return out
}

// Path returns the backing file, or "" for an in-memory ledger. Serving
// layers use it to keep other writers (model persistence) off the file.
func (l *Ledger) Path() string { return l.path }

// commitLocked makes one mutation durable before it is acknowledged:
// it appends a single fsync'd record to the log (and opportunistically
// compacts it). In-memory ledgers commit trivially; a closed file-backed
// ledger cannot make anything durable, so every mutation fails.
// Callers hold l.mu.
func (l *Ledger) commitLocked(rec walRecord) error {
	if err := l.commitRawLocked(rec); err != nil {
		l.m.persistFailed()
		return err
	}
	return nil
}

func (l *Ledger) commitRawLocked(rec walRecord) error {
	if l.log == nil {
		if l.path != "" {
			return fmt.Errorf("%w: ledger %s is closed", ErrPersist, l.path)
		}
		return nil
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("%w: encode record: %v", ErrPersist, err)
	}
	if err := l.log.Append(payload); err != nil {
		return fmt.Errorf("%w: %v", ErrPersist, err)
	}
	l.maybeCompactLocked()
	return nil
}

// Close releases the WAL append handle (no-op for in-memory ledgers).
// Every acknowledged mutation is already durable.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log == nil {
		return nil
	}
	err := l.log.Close()
	l.log = nil
	return err
}
