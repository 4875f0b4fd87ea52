package curator

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privbayes"
	"privbayes/internal/accountant"
	"privbayes/internal/core"
	"privbayes/internal/counts"
	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
	"privbayes/internal/score"
	"privbayes/internal/telemetry"
	"privbayes/internal/wal"
)

// binData generates correlated binary rows, the curator test workload.
func binData(n int, seed int64) *dataset.Dataset {
	attrs := []dataset.Attribute{
		dataset.NewCategorical("a", []string{"0", "1"}),
		dataset.NewCategorical("b", []string{"0", "1"}),
		dataset.NewCategorical("c", []string{"0", "1"}),
		dataset.NewCategorical("d", []string{"0", "1"}),
	}
	ds := dataset.New(attrs)
	rng := rand.New(rand.NewSource(seed))
	rec := make([]uint16, len(attrs))
	for i := 0; i < n; i++ {
		rec[0] = uint16(rng.Intn(2))
		rec[1] = rec[0]
		if rng.Float64() < 0.15 {
			rec[1] = 1 - rec[1]
		}
		rec[2] = rec[1]
		if rng.Float64() < 0.2 {
			rec[2] = 1 - rec[2]
		}
		rec[3] = uint16(rng.Intn(2))
		ds.Append(rec)
	}
	return ds
}

// publisher collects published models and signals each publication.
type publisher struct {
	mu     sync.Mutex
	models map[string]*privbayes.Model
	eps    map[string]float64
	ch     chan string
}

func newPublisher() *publisher {
	return &publisher{models: map[string]*privbayes.Model{}, eps: map[string]float64{}, ch: make(chan string, 16)}
}

func (p *publisher) publish(id string, m *privbayes.Model, eps float64) error {
	p.mu.Lock()
	p.models[id] = m
	p.eps[id] = eps
	p.mu.Unlock()
	p.ch <- id
	return nil
}

func (p *publisher) lookup(id string) (*privbayes.Model, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m, ok := p.models[id]
	return m, ok
}

func (p *publisher) wait(t *testing.T) string {
	t.Helper()
	select {
	case id := <-p.ch:
		return id
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for a refit to publish")
		return ""
	}
}

func modelJSON(t *testing.T, m *privbayes.Model, eps float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf, eps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestIngestRecoveryAndIdempotency(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ds := binData(1000, 1)
	if err := c.Create("adult", ds.Attrs()); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("adult", ds.Attrs()); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: got %v, want ErrExists", err)
	}
	if _, err := c.Append("nope", "", ds); !errors.Is(err, ErrNotFound) {
		t.Fatalf("append to unknown dataset: got %v, want ErrNotFound", err)
	}
	if err := c.Create("../evil", ds.Attrs()); err == nil {
		t.Fatal("path-traversal id accepted")
	}

	// Keyed appends are idempotent; unkeyed ones are not.
	if dup, err := c.Append("adult", "batch-1", ds.Slice(0, 400)); err != nil || dup {
		t.Fatalf("first keyed append: dup=%v err=%v", dup, err)
	}
	if dup, err := c.Append("adult", "batch-1", ds.Slice(0, 400)); err != nil || !dup {
		t.Fatalf("replayed keyed append: dup=%v err=%v, want duplicate", dup, err)
	}
	if dup, err := c.Append("adult", "", ds.Slice(400, 700)); err != nil || dup {
		t.Fatalf("unkeyed append: dup=%v err=%v", dup, err)
	}
	other := dataset.New([]dataset.Attribute{dataset.NewCategorical("x", []string{"0", "1"})})
	other.Append([]uint16{0})
	if _, err := c.Append("adult", "", other); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("mismatched schema: got %v, want ErrSchemaMismatch", err)
	}
	st, err := c.Status("adult")
	if err != nil || st.Rows != 700 {
		t.Fatalf("status: %+v err=%v, want 700 rows", st, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn tail: garbage after the last acknowledged record.
	path := filepath.Join(dir, "adult.rows")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("\x99\x00\x00\x00torn"))
	f.Close()

	c2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st, err = c2.Status("adult")
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 700 {
		t.Fatalf("recovered %d rows, want 700 (acknowledged appends survive, torn tail vanishes)", st.Rows)
	}
	if dup, err := c2.Append("adult", "batch-1", ds.Slice(0, 400)); err != nil || !dup {
		t.Fatalf("keyed replay after recovery: dup=%v err=%v, want duplicate", dup, err)
	}
	if st.StalenessSeconds < 0 {
		t.Fatal("negative staleness")
	}
}

// TestRefitColdThenIncremental drives the full curation loop: ingest
// past the row trigger fits a cold model from the row log; further
// ingest triggers an incremental refit from the maintained count store.
// Both are deterministic given the seeds, so each published model is
// checked byte-for-byte against its reference fit.
func TestRefitColdThenIncremental(t *testing.T) {
	dir := t.TempDir()
	led := accountant.New(100)
	pub := newPublisher()
	reg := telemetry.NewRegistry()
	c, err := New(Config{
		Dir:          dir,
		Ledger:       led,
		RefitEpsilon: 0.9,
		RefitRows:    1000,
		ChunkRows:    256,
		FitOptions:   []privbayes.Option{privbayes.WithSeed(7), privbayes.WithDegree(2)},
		Seed:         func() int64 { return 21 },
		Publish:      pub.publish,
		Lookup:       pub.lookup,
		Metrics:      NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ds := binData(3000, 3)
	if err := c.Create("adult", ds.Attrs()); err != nil {
		t.Fatal(err)
	}
	// 900 rows: below the trigger, nothing publishes.
	if _, err := c.Append("adult", "b0", ds.Slice(0, 900)); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-pub.ch:
		t.Fatalf("refit %s published below the row trigger", id)
	case <-time.After(200 * time.Millisecond):
	}
	// Crossing 1000 rows triggers the cold fit over the row log.
	if _, err := c.Append("adult", "b1", ds.Slice(900, 1500)); err != nil {
		t.Fatal(err)
	}
	coldID := pub.wait(t)
	if coldID != "adult-refit-1500" {
		t.Fatalf("cold refit model id %q, want adult-refit-1500", coldID)
	}
	coldM, _ := pub.lookup(coldID)
	wantCold, err := privbayes.Fit(context.Background(), ds.Slice(0, 1500),
		privbayes.WithSeed(7), privbayes.WithDegree(2), privbayes.WithEpsilon(0.9), privbayes.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(modelJSON(t, coldM, 0.9), modelJSON(t, wantCold, 0.9)) {
		t.Error("cold refit differs from the reference out-of-core fit")
	}
	if got := led.Get("adult").Spent; got != 0.9 {
		t.Fatalf("ε spent after cold refit: %g, want 0.9", got)
	}

	// Another 1000+ rows: the count store is maintained incrementally,
	// so this refit reuses the cold network and only redraws noisy
	// conditionals over the full 3000 rows.
	if _, err := c.Append("adult", "b2", ds.Slice(1500, 3000)); err != nil {
		t.Fatal(err)
	}
	incID := pub.wait(t)
	if incID != "adult-refit-3000" {
		t.Fatalf("incremental refit model id %q, want adult-refit-3000", incID)
	}
	incM, _ := pub.lookup(incID)
	if incM.Network.String() != coldM.Network.String() {
		t.Error("incremental refit changed the network structure")
	}
	// Reference: refit from a store accumulated over all 3000 rows.
	refSt := counts.NewStore(ds.Attrs())
	for _, pair := range coldM.Network.Pairs {
		if err := refSt.Register(pair.Parents, []marginal.Var{pair.X}); err != nil {
			t.Fatal(err)
		}
	}
	if err := refSt.Accumulate(ds); err != nil {
		t.Fatal(err)
	}
	wantInc, err := core.RefitCountsContext(context.Background(), ds.Attrs(), refSt,
		coldM.Network, coldM.K, core.Options{Epsilon: 0.9, Mode: core.ModeBinary,
			Score: score.Function(coldM.Score), Parallelism: 2, Rand: rand.New(rand.NewSource(21))})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(modelJSON(t, incM, 0.9), modelJSON(t, wantInc, 0.9)) {
		t.Error("incremental refit differs from the reference count-store refit")
	}
	if got := led.Get("adult").Spent; got != 1.8 {
		t.Fatalf("ε spent after two refits: %g, want 1.8", got)
	}
	// The fit marker is written after the model is published, so wait
	// for the refit to finish before reading the status.
	var st Status
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err = c.Status("adult")
		if err != nil {
			t.Fatal(err)
		}
		if !st.Refitting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the incremental refit to finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.ModelID != incID || st.FitKind != "incremental" || st.FitRows != 3000 || st.UnfittedRows != 0 {
		t.Fatalf("status after refits: %+v", st)
	}
	if st.StalenessSeconds != 0 {
		t.Fatalf("staleness %g after covering fit, want 0", st.StalenessSeconds)
	}
	if c.StoreCells() == 0 {
		t.Error("count store reports zero cells after refits")
	}
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"privbayes_curator_rows_ingested_total", "privbayes_curator_refits_total",
		"privbayes_curator_count_store_cells", "privbayes_curator_staleness_seconds"} {
		if !bytes.Contains(text.Bytes(), []byte(fam)) {
			t.Errorf("metric family %s missing from exposition", fam)
		}
	}
}

// TestRefitChargeIdempotency covers the two crash windows of a refit:
// charged-but-unpublished (finish the fit without paying again) and
// charged-and-published-but-unmarked (adopt the published model). In
// both, total ε spend stays exactly one refit's ε.
func TestRefitChargeIdempotency(t *testing.T) {
	ds := binData(1200, 5)

	t.Run("charged-not-published", func(t *testing.T) {
		led := accountant.New(100)
		pub := newPublisher()
		// A previous incarnation charged for the refit at 1200 rows and
		// died before publishing.
		if _, err := led.Charge("adult", 0.9, "curator-adult-1200", "adult-refit-1200"); err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{Dir: t.TempDir(), Ledger: led, RefitEpsilon: 0.9, RefitRows: 1000,
			FitOptions: []privbayes.Option{privbayes.WithSeed(7)},
			Publish:    pub.publish, Lookup: pub.lookup})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Create("adult", ds.Attrs()); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Append("adult", "", ds); err != nil {
			t.Fatal(err)
		}
		id := pub.wait(t)
		if id != "adult-refit-1200" {
			t.Fatalf("published %q, want adult-refit-1200", id)
		}
		if got := led.Get("adult").Spent; got != 0.9 {
			t.Fatalf("ε spent %g, want 0.9 — the fit must reuse the crashed run's charge", got)
		}
	})

	t.Run("published-not-marked", func(t *testing.T) {
		led := accountant.New(100)
		pub := newPublisher()
		prior, err := privbayes.Fit(context.Background(), ds, privbayes.WithEpsilon(0.9), privbayes.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		pub.models["adult-refit-1200"] = prior
		if _, err := led.Charge("adult", 0.9, "curator-adult-1200", "adult-refit-1200"); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		c, err := New(Config{Dir: dir, Ledger: led, RefitEpsilon: 0.9, RefitRows: 1000,
			Publish: pub.publish, Lookup: pub.lookup})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Create("adult", ds.Attrs()); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Append("adult", "", ds); err != nil {
			t.Fatal(err)
		}
		// The recovered path writes a marker without re-publishing, so
		// poll the status instead of the publish channel.
		deadline := time.Now().Add(30 * time.Second)
		for {
			st, err := c.Status("adult")
			if err != nil {
				t.Fatal(err)
			}
			if st.ModelID != "" {
				if st.ModelID != "adult-refit-1200" || st.FitKind != "recovered" {
					t.Fatalf("recovered status: %+v", st)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("timed out waiting for the recovered marker")
			}
			time.Sleep(5 * time.Millisecond)
		}
		select {
		case id := <-pub.ch:
			t.Fatalf("model %s re-published during recovery", id)
		default:
		}
		if got := led.Get("adult").Spent; got != 0.9 {
			t.Fatalf("ε spent %g, want 0.9 — recovery must never double-charge", got)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		// The adopted network must also survive restart: the rebuilt
		// store serves an incremental refit.
		c2, err := New(Config{Dir: dir, Ledger: led, RefitEpsilon: 0.9, RefitRows: 100,
			Seed: func() int64 { return 9 }, Publish: pub.publish, Lookup: pub.lookup})
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close()
		extra := binData(200, 99)
		if _, err := c2.Append("adult", "", extra); err != nil {
			t.Fatal(err)
		}
		id := pub.wait(t)
		if id != "adult-refit-1400" {
			t.Fatalf("post-restart refit id %q, want adult-refit-1400", id)
		}
		// The fit marker is written after the model is published, so wait
		// for the refit to finish before reading the status.
		var st Status
		deadline = time.Now().Add(30 * time.Second)
		for {
			st, err = c2.Status("adult")
			if err != nil {
				t.Fatal(err)
			}
			if !st.Refitting {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("timed out waiting for the post-restart refit to finish")
			}
			time.Sleep(5 * time.Millisecond)
		}
		if st.FitKind != "incremental" {
			t.Fatalf("post-restart refit kind %q, want incremental (store rebuilt from the log)", st.FitKind)
		}
		if got := led.Get("adult").Spent; got != 1.8 {
			t.Fatalf("ε spent %g, want 1.8", got)
		}
	})
}

// TestRefitReplayedChargeKeptOnFailure: a refit that replays an
// earlier run's charge and then fails to publish keeps the charge, as
// the earlier run may have published; the next refit at the same row
// watermark replays the key again and publishes with no second charge.
func TestRefitReplayedChargeKeptOnFailure(t *testing.T) {
	led := accountant.New(100)
	if _, err := led.Charge("adult", 0.9, "curator-adult-1200", "adult-refit-1200"); err != nil {
		t.Fatal(err)
	}
	pub := newPublisher()
	var failPublish atomic.Bool
	failPublish.Store(true)
	// A row trigger no test reaches: the refits below run on demand.
	c, err := New(Config{Dir: t.TempDir(), Ledger: led, RefitEpsilon: 0.9, RefitRows: 1 << 40,
		Publish: func(id string, m *privbayes.Model, eps float64) error {
			if failPublish.Load() {
				return errors.New("registry unavailable")
			}
			return pub.publish(id, m, eps)
		},
		Lookup: pub.lookup})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := binData(1200, 5)
	if err := c.Create("adult", ds.Attrs()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append("adult", "", ds); err != nil {
		t.Fatal(err)
	}
	d, err := c.lookup("adult")
	if err != nil {
		t.Fatal(err)
	}

	if outcome, _, err := c.refit(d); outcome != "failed" || err == nil {
		t.Fatalf("refit with a failing publish: outcome %q, err %v", outcome, err)
	}
	if got := led.Get("adult").Spent; got != 0.9 {
		t.Fatalf("ε spent %g after the failed completion, want the replayed 0.9 kept", got)
	}

	failPublish.Store(false)
	if outcome, _, err := c.refit(d); outcome != "published" || err != nil {
		t.Fatalf("retried refit: outcome %q, err %v", outcome, err)
	}
	if id := pub.wait(t); id != "adult-refit-1200" {
		t.Fatalf("published %q, want adult-refit-1200", id)
	}
	if got := led.Get("adult").Spent; got != 0.9 {
		t.Fatalf("ε spent %g after the retry, want 0.9 — no second charge", got)
	}
}

// TestRefitBudgetExhausted: a refit whose charge is refused spends
// nothing, publishes nothing, and re-arms only on new appends.
func TestRefitBudgetExhausted(t *testing.T) {
	led := accountant.New(0.5) // below RefitEpsilon
	pub := newPublisher()
	c, err := New(Config{Dir: t.TempDir(), Ledger: led, RefitEpsilon: 0.9, RefitRows: 100,
		Publish: pub.publish, Lookup: pub.lookup})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := binData(300, 2)
	if err := c.Create("adult", ds.Attrs()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append("adult", "", ds); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-pub.ch:
		t.Fatalf("refit %s published over budget", id)
	case <-time.After(300 * time.Millisecond):
	}
	if got := led.Get("adult").Spent; got != 0 {
		t.Fatalf("ε spent %g on a refused refit, want 0", got)
	}
	st, _ := c.Status("adult")
	if st.ModelID != "" {
		t.Fatalf("model %q exists despite exhausted budget", st.ModelID)
	}
}

// TestRowLogScanMatchesBatches: rows streamed back out of the log —
// whatever the append batching — equal the ingested row sequence, and a
// capped scan stops exactly at the requested snapshot.
func TestRowLogScanMatchesBatches(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ds := binData(2500, 11)
	if err := c.Create("d", ds.Attrs()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for lo := 0; lo < ds.N(); {
		hi := lo + 1 + rng.Intn(400)
		if hi > ds.N() {
			hi = ds.N()
		}
		if _, err := c.Append("d", fmt.Sprintf("k%d", lo), ds.Slice(lo, hi)); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		maxRows int64
		want    int
	}{{0, 2500}, {1700, 1700}} {
		src := rowLogSource(nil, filepath.Join(dir, "d.rows"), ds.Attrs(), 333, tc.maxRows)
		sc, err := src.Open()
		if err != nil {
			t.Fatal(err)
		}
		row := 0
		for {
			chunk, err := sc.Next()
			if err != nil {
				break
			}
			for r := 0; r < chunk.N(); r++ {
				for col := 0; col < chunk.D(); col++ {
					if chunk.Value(r, col) != ds.Value(row, col) {
						t.Fatalf("maxRows=%d: row %d col %d: got %d, want %d",
							tc.maxRows, row, col, chunk.Value(r, col), ds.Value(row, col))
					}
				}
				row++
			}
		}
		sc.Close()
		if row != tc.want {
			t.Fatalf("maxRows=%d: scanned %d rows, want %d", tc.maxRows, row, tc.want)
		}
	}
}

// TestStalenessTrigger: with only the staleness trigger configured, a
// quiet dataset refits once its unfitted rows age past the threshold.
func TestStalenessTrigger(t *testing.T) {
	led := accountant.New(100)
	pub := newPublisher()
	c, err := New(Config{Dir: t.TempDir(), Ledger: led, RefitEpsilon: 0.9,
		RefitMaxStaleness: 150 * time.Millisecond, PollInterval: 25 * time.Millisecond,
		Publish: pub.publish, Lookup: pub.lookup})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := binData(200, 8)
	if err := c.Create("d", ds.Attrs()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append("d", "", ds); err != nil {
		t.Fatal(err)
	}
	id := pub.wait(t)
	if id != "d-refit-200" {
		t.Fatalf("staleness refit id %q, want d-refit-200", id)
	}
}

// TestRecoveryDropsInterruptedCreate: a crash inside Create can leave
// a row log with no record — the header alone, or a torn schema record.
// Create never acknowledged it, so a restart drops the log instead of
// refusing to start, and the id can be created again.
func TestRecoveryDropsInterruptedCreate(t *testing.T) {
	for name, tail := range map[string][]byte{
		"header only": nil,
		"torn schema": {9, 0, 0, 0, 1, 2}, // a length prefix and half a CRC
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "d.rows")
			log, err := wal.Open(path, wal.Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			log.Close()
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			c, err := New(Config{Dir: dir})
			if err != nil {
				t.Fatalf("restart after an interrupted create: %v", err)
			}
			defer c.Close()
			if _, err := c.Status("d"); !errors.Is(err, ErrNotFound) {
				t.Errorf("status of the interrupted dataset: %v, want ErrNotFound", err)
			}
			if err := c.Create("d", binData(10, 1).Attrs()); err != nil {
				t.Errorf("create again: %v", err)
			}
		})
	}
}

// TestCreateRejectsUnrecoverableSchema: Create refuses every schema the
// schema record's decoder would refuse at recovery, and leaves no row
// log behind.
func TestCreateRejectsUnrecoverableSchema(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bin := []string{"0", "1"}
	for name, attrs := range map[string][]dataset.Attribute{
		"empty":           nil,
		"duplicate name":  {dataset.NewCategorical("a", bin), dataset.NewCategorical("a", bin)},
		"duplicate label": {dataset.NewCategorical("a", []string{"x", "x"})},
		"infinite range":  {dataset.NewContinuous("a", 0, math.Inf(1), 4)},
	} {
		if err := c.Create("d", attrs); err == nil {
			t.Errorf("%s: Create accepted the schema", name)
		}
		if _, err := os.Stat(filepath.Join(dir, "d.rows")); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: row log left behind (stat: %v)", name, err)
		}
	}
}

// TestColdRefitFailsOnDamagedRowLog: a row record damaged after
// recovery fails the next cold refit with wal.ErrCorrupt instead of
// fitting the rows before the damage under the full snapshot's id. The
// refit publishes nothing and refunds its ε. Damage to the final
// record reads as a torn tail, so the scan ends early; the snapshot
// still names rows the log no longer holds, and that fails the same
// way. A restart refuses the log with damage before its end.
func TestColdRefitFailsOnDamagedRowLog(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch int // row record to damage, of four
	}{{"middle", 1}, {"final", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			led := accountant.New(100)
			pub := newPublisher()
			// A row trigger no test reaches: the refit below runs on demand.
			cfg := Config{Dir: dir, Ledger: led, RefitEpsilon: 1, RefitRows: 1 << 40,
				Publish: pub.publish, Lookup: pub.lookup}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ds := binData(4000, 12)
			if err := c.Create("d", ds.Attrs()); err != nil {
				t.Fatal(err)
			}
			for b := 0; b < 4; b++ {
				if _, err := c.Append("d", "", ds.Slice(b*1000, (b+1)*1000)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if c, err = New(cfg); err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			path := filepath.Join(dir, "d.rows")
			flipRowRecordByte(t, path, tc.batch)
			d, err := c.lookup("d")
			if err != nil {
				t.Fatal(err)
			}
			outcome, kind, err := c.refit(d)
			if !errors.Is(err, wal.ErrCorrupt) || outcome != "failed" || kind != "cold" {
				t.Fatalf("refit: outcome %q kind %q err %v, want a failed cold refit matching wal.ErrCorrupt", outcome, kind, err)
			}
			pub.mu.Lock()
			published := len(pub.models)
			pub.mu.Unlock()
			if published != 0 {
				t.Fatalf("published %d model(s) from a damaged log", published)
			}
			if got := led.Get("d").Spent; got != 0 {
				t.Fatalf("ε spent %g after the failed refit, want 0", got)
			}
			if tc.name == "middle" {
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
				if c2, err := New(cfg); !errors.Is(err, wal.ErrCorrupt) {
					if c2 != nil {
						c2.Close()
					}
					t.Fatalf("restart over mid-log damage: %v, want wal.ErrCorrupt", err)
				}
			}
		})
	}
}

// flipRowRecordByte flips the last payload byte of the batch-th row
// record (0-based) of the row log at path.
func flipRowRecordByte(t *testing.T, path string, batch int) {
	t.Helper()
	r, err := wal.OpenReader(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	var at int64 = -1
	for seen := 0; at < 0; {
		off, payload, err := r.Next()
		if err != nil {
			t.Fatalf("row record %d not found: %v", batch, err)
		}
		if payload[0] == recRows {
			if seen == batch {
				at = off + 8 + int64(len(payload)) - 1 // past the 8-byte frame header
			}
			seen++
		}
	}
	r.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
}

// TestRowLogRecoveryBoundedMemory: recovery streams a row log one
// record at a time, so reopening a log of more than 64 MiB, written in
// 4 MiB batches, grows the heap by far less than the file; reading the
// whole file first grows it by the file's size. A watcher goroutine
// samples heap usage throughout recovery, as
// TestFitScannerMillionRowsBoundedMemory does.
func TestRowLogRecoveryBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("68 MiB row log in -short mode")
	}
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	attrs := []dataset.Attribute{
		dataset.NewCategorical("a", []string{"0", "1"}),
		dataset.NewCategorical("b", []string{"0", "1"}),
	}
	if err := c.Create("big", attrs); err != nil {
		t.Fatal(err)
	}
	batch := dataset.NewWithCapacity(attrs, MaxBatchRows) // 4 MiB of codes per record
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < MaxBatchRows; i++ {
		batch.Append([]uint16{uint16(rng.Intn(2)), uint16(rng.Intn(2))})
	}
	const batches = 17
	for i := 0; i < batches; i++ {
		if _, err := c.Append("big", "", batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "big.rows"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 64<<20 {
		t.Fatalf("row log is %d bytes, want at least 64 MiB", fi.Size())
	}
	batch = nil

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	var peak atomic.Uint64
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		var ms runtime.MemStats
		for {
			select {
			case <-done:
				return
			default:
			}
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	c2, err := New(Config{Dir: dir})
	close(done)
	<-sampled
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st, err := c2.Status("big"); err != nil || st.Rows != batches*MaxBatchRows {
		t.Fatalf("recovered status %+v (err %v), want %d rows", st, err, batches*MaxBatchRows)
	}
	growth := int64(peak.Load()) - int64(base.HeapAlloc)
	if growth > 32<<20 {
		t.Errorf("peak heap growth %.1f MiB recovering a %.1f MiB row log; want < 32 MiB",
			float64(growth)/(1<<20), float64(fi.Size())/(1<<20))
	}
	t.Logf("recovering a %.1f MiB row log: peak heap growth %.1f MiB",
		float64(fi.Size())/(1<<20), float64(growth)/(1<<20))
}
