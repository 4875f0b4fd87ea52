package marginal

// Scratch-buffer pools for the counting hot path. Within one Fit the
// counting loops ask for decode buffers, code buffers, row masks and
// per-worker count scratch thousands of times with identical shapes,
// so they are pooled here. Pooled buffers are not zeroed: users
// overwrite them fully or clear them first.

import "sync"

// pool hands out scratch slices of one element type.
type pool[T any] struct{ p sync.Pool }

// get returns a buffer of exactly n elements. A pooled buffer too small
// for n is dropped, so the larger replacement takes its slot once put
// returns it.
func (p *pool[T]) get(n int) []T {
	if s, ok := p.p.Get().(*[]T); ok && cap(*s) >= n {
		return (*s)[:n]
	}
	return make([]T, n)
}

// put returns a buffer obtained from get to the pool.
func (p *pool[T]) put(s []T) {
	if cap(s) > 0 {
		p.p.Put(&s)
	}
}

var (
	floats pool[float64] // per-worker count scratch
	u16s   pool[uint16]  // per-chunk column-decode buffers
	u32s   pool[uint32]  // per-chunk parent-configuration codes
	words  pool[uint64]  // popcount row masks
	ints   pool[int]     // generalization lookups, cell codes
)
