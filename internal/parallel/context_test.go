package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCtxCompletes: an uncancelled ForCtx runs every unit.
func TestForCtxCompletes(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		var sum atomic.Int64
		if err := ForCtx(context.Background(), workers, 100, func(i int) {
			sum.Add(int64(i))
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sum.Load() != 4950 {
			t.Errorf("workers=%d: sum = %d, want 4950", workers, sum.Load())
		}
	}
}

// TestForCtxCancelStopsDispatch: cancelling mid-run stops new units and
// returns context.Canceled.
func TestForCtxCancelStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForCtx(ctx, workers, 10_000, func(i int) {
			if ran.Add(1) == 5 {
				cancel()
			}
			time.Sleep(100 * time.Microsecond)
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// At most the in-flight units (one per worker) run after cancel.
		if got := ran.Load(); got > int64(5+workers) {
			t.Errorf("workers=%d: %d units ran after cancellation point", workers, got)
		}
	}
}

// TestForCtxPreCancelled: a context cancelled before the call runs no
// units at all (parallel path) and at most zero (serial path).
func TestForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForCtx(ctx, 4, 100, func(i int) { ran.Add(1) })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d units ran on a pre-cancelled context", ran.Load())
	}
}

// TestForCtxCompletionBeatsCancel: when every unit has run, the call
// reports success even if the context ends concurrently with the last
// unit — callers keep complete, usable results.
func TestForCtxCompletionBeatsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForCtx(ctx, 4, 50, func(i int) {
		if ran.Add(1) == 50 {
			cancel()
		}
	})
	cancel()
	if err != nil {
		t.Fatalf("all units ran, err = %v, want nil", err)
	}
}

// TestMapCtx: ordered reduction with and without cancellation.
func TestMapCtx(t *testing.T) {
	out, err := MapCtx(context.Background(), 3, 10, func(i int) int { return i * i })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MapCtx(ctx, 3, 10, func(i int) int { return i }); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCtxPoolLeaksNoGoroutines: cancelled pools tear down completely —
// the goroutine count returns to its baseline.
func TestCtxPoolLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(round) * 50 * time.Microsecond)
			cancel()
		}()
		ForCtx(ctx, 8, 10_000, func(i int) { time.Sleep(20 * time.Microsecond) })
		cancel()
	}
	// The pool blocks until its workers exit, so only the timer
	// goroutines above may still be draining; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d at baseline, %d after cancelled pools", base, runtime.NumGoroutine())
}
