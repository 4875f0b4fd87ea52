package server

import (
	"errors"
	"net/http"
	"strconv"
	"sync"
)

// Defaults for the overload-protection knobs.
const (
	// DefaultMaxQueueDepth is the number of requests allowed to wait
	// for worker slots before new arrivals are shed with 503.
	DefaultMaxQueueDepth = 64
	// DefaultMaxFitsPerDataset caps concurrent curator fits per dataset
	// id; excess fits are rejected with 429. Fits against one dataset
	// contend for the same ε budget, so letting them pile up mostly
	// manufactures budget-rejection races.
	DefaultMaxFitsPerDataset = 2
)

// writeRetryAfter writes an error response with a Retry-After hint —
// the contract for 429 (per-dataset pressure) and 503 (server-wide
// overload), which Client honors when backing off.
func writeRetryAfter(w http.ResponseWriter, status, seconds int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(seconds))
	writeError(w, status, format, args...)
}

// admit is every request's admission step: it claims workers for the
// request's first compute burst through the shed-capable acquire. Under
// overload it answers 503 + Retry-After instead of parking the request
// in an unbounded queue — a 503 is only expressible before the first
// response byte, so handlers admit before writing anything. ok=false
// means the request is over: shed, or its client gone while waiting.
// On ok=true the returned release must be called exactly once.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, asked int) (got int, release func(), ok bool) {
	got, release, err := s.workers.acquire(r.Context(), s.requestWorkers(asked), true)
	if err != nil {
		if errors.Is(err, errOverloaded) {
			writeRetryAfter(w, http.StatusServiceUnavailable, s.retryAfterSeconds(),
				"server overloaded: worker queue full, retry later")
		}
		return 0, nil, false
	}
	return got, release, true
}

// retryAfterSeconds estimates how long a shed client should wait before
// retrying: one second plus a second per queued request ahead of it,
// capped so clients never park for minutes on a stale hint.
func (s *Server) retryAfterSeconds() int {
	const cap = 30
	sec := 1 + s.workers.queueDepth()
	if sec > cap {
		return cap
	}
	return sec
}

// inflightGauge counts concurrent operations per key and rejects new
// ones past a cap: the per-dataset fit cap, and at cap 1 the
// Idempotency-Key single flight. It is a load-shedding guard, not a
// queue: callers that cannot enter are told to retry later.
type inflightGauge struct {
	mu  sync.Mutex
	cap int
	m   map[string]int
}

func newInflightGauge(cap int) *inflightGauge {
	if cap < 1 {
		cap = 1
	}
	return &inflightGauge{cap: cap, m: map[string]int{}}
}

// enter claims a slot for key. ok=false means the per-key cap is
// reached; on ok=true the returned leave must be called exactly once.
func (g *inflightGauge) enter(key string) (leave func(), ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m[key] >= g.cap {
		return nil, false
	}
	g.m[key]++
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			defer g.mu.Unlock()
			if g.m[key] <= 1 {
				delete(g.m, key)
			} else {
				g.m[key]--
			}
		})
	}, true
}
