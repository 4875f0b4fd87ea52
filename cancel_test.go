package privbayes

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// cancelData is a dataset big enough that a fit spans many pipeline
// units (greedy iterations, joints, sample chunks), so cancellation has
// somewhere to land mid-flight.
func cancelData(n, d int) *Dataset {
	attrs := make([]Attribute, d)
	for i := range attrs {
		attrs[i] = NewCategorical(string(rune('a'+i)), []string{"0", "1", "2", "3"})
	}
	ds := NewDataset(attrs)
	rec := make([]uint16, d)
	for r := 0; r < n; r++ {
		for c := range rec {
			rec[c] = uint16((r*(c+3) + c) % 4)
		}
		ds.Append(rec)
	}
	return ds
}

// cancelHierData is a general-mode dataset whose attributes carry
// taxonomies (16 equi-width bins under a binary tree), so Algorithm 6
// generalizes parents and most joints take the batched row walk instead
// of the popcount kernel.
func cancelHierData(n, d int) *Dataset {
	attrs := make([]Attribute, d)
	for i := range attrs {
		attrs[i] = NewContinuous(string(rune('a'+i)), 0, 16, 16)
	}
	ds := NewDataset(attrs)
	rec := make([]uint16, d)
	for r := 0; r < n; r++ {
		for c := range rec {
			rec[c] = uint16((r*(c+3) + c*c + r/7) % 16)
		}
		ds.Append(rec)
	}
	return ds
}

// waitGoroutines polls until the goroutine count drops back to at most
// base (plus slack for the runtime's own helpers).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d at baseline, %d now", base, runtime.NumGoroutine())
}

// fitEntry is one way to fit the same rows: Fit over the dataset, or
// FitScanner over a DatasetSource of it.
type fitEntry struct {
	name string
	fit  func(ctx context.Context, ds *Dataset, opts ...Option) (*Model, error)
}

var fitEntries = []fitEntry{
	{"Fit", Fit},
	{"FitScanner", func(ctx context.Context, ds *Dataset, opts ...Option) (*Model, error) {
		return FitScanner(ctx, DatasetSource(ds, 1000), opts...)
	}},
}

// TestFitCancelMidRun: cancelling mid-fit — from inside a progress
// callback, so cancellation demonstrably lands while the pipeline is
// running, or in general mode from a timer it starts, so it lands in a
// batched row walk — returns context.Canceled promptly and leaks no
// goroutines, through either entry point.
func TestFitCancelMidRun(t *testing.T) {
	ds := cancelData(6000, 8)
	base := runtime.NumGoroutine()
	for _, e := range fitEntries {
		for _, par := range []int{1, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			events := 0
			start := time.Now()
			_, err := e.fit(ctx, ds,
				WithEpsilon(1), WithSeed(1), WithParallelism(par),
				WithProgress(func(p Progress) {
					events++
					if events == 2 {
						cancel()
					}
				}))
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s, parallelism %d: err = %v, want context.Canceled", e.name, par, err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("%s, parallelism %d: cancellation took %v", e.name, par, elapsed)
			}
		}
	}

	// General mode with taxonomies: cancel from another goroutine 5 ms
	// into the fifth greedy iteration. From there on each iteration
	// takes over 100 ms on a 2-CPU host, nearly all of it in the batched
	// row walk, so the cancel lands inside a walk, which checks ctx
	// every 4 096-row chunk.
	hier := cancelHierData(60_000, 8)
	for _, e := range fitEntries {
		for _, par := range []int{1, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			cancelled := make(chan time.Time, 1)
			_, err := e.fit(ctx, hier,
				WithEpsilon(4), WithHierarchy(true), WithSeed(1), WithParallelism(par),
				WithProgress(func(p Progress) {
					if p.Phase == PhaseNetwork && p.Done == 4 {
						time.AfterFunc(5*time.Millisecond, func() {
							cancelled <- time.Now()
							cancel()
						})
					}
				}))
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s general mode, parallelism %d: err = %v, want context.Canceled", e.name, par, err)
			}
			if elapsed := time.Since(<-cancelled); elapsed > 5*time.Second {
				t.Errorf("%s general mode, parallelism %d: cancellation took %v", e.name, par, elapsed)
			}
		}
	}
	waitGoroutines(t, base)
}

// TestFitPreCancelled: an already-cancelled context fails before any
// work happens, through either entry point.
func TestFitPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range fitEntries {
		_, err := e.fit(ctx, cancelData(500, 4), WithEpsilon(1), WithSeed(2))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", e.name, err)
		}
	}
}

// TestSynthesizeStreamCancelMidStream: cancelling between yielded rows
// surfaces context.Canceled through the iterator and tears the
// sampling pool down without leaks.
func TestSynthesizeStreamCancelMidStream(t *testing.T) {
	m, err := Fit(context.Background(), cancelData(3000, 6), WithEpsilon(1), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	rows, sawCancel := 0, false
	for _, err := range m.Synthesize(ctx, 10_000_000, SynthSeed(4)) {
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("stream error = %v, want context.Canceled", err)
			}
			sawCancel = true
			break
		}
		rows++
		if rows == 100 {
			cancel()
		}
	}
	cancel()
	if !sawCancel {
		t.Fatal("stream never surfaced the cancellation")
	}
	if rows >= 10_000_000 {
		t.Fatal("stream ran to completion despite cancel")
	}
	waitGoroutines(t, base)
}

// TestSynthesizeToCancel: the writer-side stream honours ctx too.
func TestSynthesizeToCancel(t *testing.T) {
	m, err := Fit(context.Background(), cancelData(3000, 6), WithEpsilon(1), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &cancelAfterWriter{cancel: cancel, after: 3}
	err = m.SynthesizeTo(ctx, w, 10_000_000, FormatCSV, SynthSeed(6))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// cancelAfterWriter cancels its context after `after` writes — a stand-
// in for a client that disconnects mid-download.
type cancelAfterWriter struct {
	cancel context.CancelFunc
	after  int
	writes int
}

func (w *cancelAfterWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes >= w.after {
		w.cancel()
	}
	return len(p), nil
}

// TestSynthesizeMaterializedCancel covers the package-level Synthesize
// path (fit + sample in one call).
func TestSynthesizeMaterializedCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	events := 0
	_, err := Synthesize(ctx, cancelData(6000, 8),
		WithEpsilon(1), WithSeed(7),
		WithProgress(func(p Progress) {
			events++
			if p.Phase == PhaseSampling && events > 0 {
				cancel()
			}
		}))
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
