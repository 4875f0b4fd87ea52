package counts

// Provider is the scan-backed count source behind privbayes.FitScanner:
// it answers CountTables requests from a Store filled by one chunked
// pass over a reopenable row source, holding only one chunk plus the
// requested tables in memory. The scoring engine prefetches each greedy
// iteration's whole candidate batch, so the provider refills its store
// with one full scan per iteration — the out-of-core cost model —
// instead of one per parent set.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
)

// ErrSourceChanged reports that a re-scan saw a different number of
// rows than an earlier pass: the source mutated mid-fit, which would
// silently break both the privacy accounting (sensitivities are
// computed from n) and the determinism contract.
var ErrSourceChanged = errors.New("counts: source changed between scans")

// Provider implements marginal.CountSource and
// marginal.BatchCountSource over a reopenable chunked row source.
type Provider struct {
	src *dataset.ChunkSource
	ctx context.Context
	par int
	n   int

	mu    sync.Mutex
	store *Store // the last prefetched batch; nil before the first
	err   error  // sticky: a failed scan poisons the provider
	scans int64
	rows  int64 // cumulative rows read across scans
}

// NewProvider counts the source's rows with one validating scan and
// returns a provider ready to serve count requests. parallelism bounds
// per-chunk counting workers (<= 0 selects GOMAXPROCS) and never
// affects the counts. The context governs every subsequent scan: when
// it ends, in-flight and future requests fail with its error.
func NewProvider(ctx context.Context, src *dataset.ChunkSource, parallelism int) (*Provider, error) {
	p := &Provider{src: src, ctx: ctx, par: parallelism}
	st := NewStore(src.Attrs)
	if err := p.scan(ctx, st); err != nil {
		return nil, err
	}
	p.n = st.Rows()
	return p, nil
}

// Rows implements marginal.CountSource.
func (p *Provider) Rows() int { return p.n }

// Stats reports the number of full source scans performed and the
// cumulative rows read — the out-of-core cost counters surfaced by
// telemetry and asserted by the one-scan-per-iteration tests.
func (p *Provider) Stats() (scans, rowsRead int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.scans, p.rows
}

// current returns the last prefetched store and the sticky error.
func (p *Provider) current() (*Store, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.store, p.err
}

// Prefetch implements marginal.BatchCountSource. When the current
// store already holds every requested table it returns at once;
// otherwise it registers the batch in a fresh store, fills it with one
// scan and makes it current. The provider's resident set is bounded by
// one batch, one chunk, and the scan accumulators.
func (p *Provider) Prefetch(ctx context.Context, reqs []marginal.CountRequest) error {
	st, err := p.current()
	if err != nil {
		return err
	}
	missing := false
	for _, req := range reqs {
		missing = missing || st == nil || !st.Holds(req.Parents, req.Children...)
	}
	if !missing {
		return nil
	}
	if st, err = p.fill(ctx, reqs); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		p.store = st
	}
	return p.err
}

// CountTables implements marginal.CountSource. Tables the last
// Prefetch covered are served from memory; anything else costs a scan
// of a one-request store. Returned tables are copies — callers may
// normalize or noise them.
func (p *Provider) CountTables(parents []marginal.Var, children []marginal.Var) ([]*marginal.Table, error) {
	st, err := p.current()
	if err != nil {
		return nil, err
	}
	if st == nil || !st.Holds(parents, children...) {
		if st, err = p.fill(p.ctx, []marginal.CountRequest{{Parents: parents, Children: children}}); err != nil {
			return nil, err
		}
	}
	return st.CountTables(parents, children)
}

// fill registers reqs in a fresh store and fills it with one full scan
// of the source, which must see as many rows as the first scan did.
func (p *Provider) fill(ctx context.Context, reqs []marginal.CountRequest) (*Store, error) {
	st := NewStore(p.src.Attrs)
	st.Parallelism = p.par
	for _, req := range reqs {
		if err := st.Register(req.Parents, req.Children); err != nil {
			return nil, p.fail(err)
		}
	}
	if err := p.scan(ctx, st); err != nil {
		return nil, err
	}
	if st.Rows() != p.n {
		return nil, p.fail(fmt.Errorf("%w: scan saw %d rows, expected %d", ErrSourceChanged, st.Rows(), p.n))
	}
	return st, nil
}

// scan accumulates one full pass over the source into st and counts it
// in Stats. It stops when either ctx or the provider's context ends,
// with that context's error. Errors are sticky.
func (p *Provider) scan(ctx context.Context, st *Store) error {
	if ctx != p.ctx {
		var cancel context.CancelCauseFunc
		ctx, cancel = context.WithCancelCause(ctx)
		defer cancel(nil)
		stop := context.AfterFunc(p.ctx, func() { cancel(context.Cause(p.ctx)) })
		defer stop()
		// AfterFunc runs late on an already-ended context; a scan must
		// not start then.
		if p.ctx.Err() != nil {
			cancel(context.Cause(p.ctx))
		}
	}
	if err := st.Scan(ctx, p.src); err != nil {
		return p.fail(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.scans++
	p.rows += int64(st.Rows())
	return nil
}

// fail records the first error as sticky and returns it (or the
// earlier one).
func (p *Provider) fail(err error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		p.err = err
	}
	return p.err
}
