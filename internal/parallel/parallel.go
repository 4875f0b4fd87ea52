// Package parallel is the execution engine for the PrivBayes pipeline's
// embarrassingly parallel hot paths: exponential-mechanism candidate
// scoring, marginal (contingency) counting over N rows, and synthetic
// tuple sampling.
//
// The engine provides three primitives — a bounded worker pool (ForCtx,
// MapCtx), chunked row-range fan-out with stable worker identities
// (ForChunks), and split RNG streams (SplitSeeds) — designed around one
// contract: for a fixed seed, results never depend on the number of
// workers or on goroutine scheduling.
//
// Determinism rules callers rely on:
//
//   - Work units are indexed (task i, or chunk c covering rows
//     [c*chunk, (c+1)*chunk)). Chunk geometry depends only on the input
//     size, never on the worker count.
//   - Results are written to the slot of their unit index (ordered
//     reduction), so output order matches serial order.
//   - Randomized units draw from a per-unit rand.Rand seeded by
//     SplitSeeds, which consumes the caller's generator sequentially
//     before fan-out. Stream assignment is per unit, not per worker, so
//     any worker count produces the same draws.
//   - Commutative accumulation (integer-valued counts) may use
//     per-worker scratch via ForChunks; exact addition makes the merged
//     total independent of chunk-to-worker assignment.
//
// Every primitive stops claiming new units as soon as its context is
// done and returns ctx.Err(); for an uncancelled context it runs every
// unit. It blocks until all of its worker goroutines have exited before
// returning, so a cancelled call never leaks goroutines and never leaves
// fn running concurrently with the caller's error handling. Units
// already started when cancellation fires run to completion (fn is not
// interrupted mid-unit); choose unit sizes so that a single unit is an
// acceptable cancellation latency.
package parallel

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a Parallelism knob: values <= 0 select
// runtime.GOMAXPROCS(0) (the "use the hardware" default), any positive
// value is taken literally. 1 means serial execution on the caller's
// goroutine.
func Workers(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// ForCtx runs fn(i) for every i in [0, n) on up to workers goroutines
// and blocks until every call has returned. workers <= 1 (or n <= 1)
// runs inline in index order. Units are claimed dynamically, so fn must
// not depend on which goroutine runs which index. When ctx ends early it
// stops dispatching further indices, waits for in-flight calls to
// finish, and returns ctx.Err(); otherwise it returns nil. A panic in
// any fn is re-raised on the caller's goroutine after the pool drains.
func ForCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	return pool(ctx, workers, n, func(_, i int) { fn(i) })
}

// MapCtx runs fn across [0, n) like ForCtx and returns the results in
// index order — the deterministic ordered reduction used by candidate
// scoring and marginal materialization. On cancellation the partial
// results are discarded and only ctx.Err() is returned; a nil error
// guarantees every slot was computed.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	if err := ForCtx(ctx, workers, n, func(i int) { out[i] = fn(i) }); err != nil {
		return nil, err
	}
	return out, nil
}

// pool is the package's one worker pool: it calls fn(worker, i) for
// every unit i in [0, n), where worker, in [0, min(workers, n)), names
// the goroutine running the unit and is stable for the call's lifetime.
// It implements the cancellation, teardown and panic contract every
// primitive shares.
func pool(ctx context.Context, workers, n int, fn func(worker, i int)) error {
	if n <= 0 {
		return nil
	}
	workers = min(workers, n)
	done := ctx.Done()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			fn(0, i)
		}
		return nil
	}
	var next, completed atomic.Int64
	var wg sync.WaitGroup
	pc := panicCatcher{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pc.catch()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	pc.repanic()
	// A cancellation that fires after the last unit already ran did not
	// lose any work; report success so callers keep complete results.
	if int(completed.Load()) == n {
		return nil
	}
	return ctx.Err()
}

// Chunks returns the number of fixed-size chunks covering [0, n). The
// count depends only on n and chunk — never on the worker count — so a
// chunk index is a deterministic unit of work.
func Chunks(n, chunk int) int {
	if n <= 0 {
		return 0
	}
	if chunk <= 0 {
		chunk = 1
	}
	return (n + chunk - 1) / chunk
}

// ForChunks fans the range [0, n) out as fixed-size chunks on the
// pool: fn(worker, lo, hi) is called once per chunk with 0 <= lo < hi
// <= n and hi-lo <= chunk. The worker id (in [0, workers)) is stable for
// the lifetime of the call, letting fn accumulate into per-worker
// scratch without locks. Chunk boundaries depend only on n and chunk;
// chunk-to-worker assignment is dynamic, so per-worker accumulation is
// deterministic only when merging is order-independent (e.g. exact
// integer sums). It checks ctx before every chunk and returns like
// ForCtx.
func ForChunks(ctx context.Context, workers, n, chunk int, fn func(worker, lo, hi int)) error {
	chunk = max(chunk, 1)
	return pool(ctx, workers, Chunks(n, chunk), func(w, c int) {
		lo := c * chunk
		fn(w, lo, min(lo+chunk, n))
	})
}

// SplitSeeds derives k child-stream seeds from the caller's generator by
// sequential draws — the split-RNG scheme. The seeds depend only on the
// generator's state and k, so randomized parallel stages stay
// deterministic at any worker count: unit i always samples from
// rand.New(rand.NewSource(seeds[i])).
func SplitSeeds(rng *rand.Rand, k int) []int64 {
	seeds := make([]int64, k)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return seeds
}

// panicCatcher records the first panic raised in a pool and re-raises it
// on the caller's goroutine, preserving serial error semantics.
type panicCatcher struct {
	mu  sync.Mutex
	val any
	set bool
}

func (p *panicCatcher) catch() {
	if r := recover(); r != nil {
		p.mu.Lock()
		if !p.set {
			p.val, p.set = r, true
		}
		p.mu.Unlock()
	}
}

func (p *panicCatcher) repanic() {
	if p.set {
		panic(p.val)
	}
}
