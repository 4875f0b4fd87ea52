package counts

// Provider is the scan-backed count source behind privbayes.FitScanner:
// it answers CountTables requests by chunked passes over a reopenable
// row source, holding only one chunk plus the requested tables in
// memory. The scoring engine prefetches each greedy iteration's whole
// candidate batch, so the provider pays one full scan per iteration —
// the out-of-core cost model — instead of one per parent set.

import (
	"context"
	"errors"
	"fmt"
	"io"
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

	mu     sync.Mutex
	tables map[string]*marginal.Table // finished tables, keyed by [parents..., child]
	err    error                      // sticky: a failed scan poisons the provider
	scans  int64
	rows   int64 // cumulative rows read across scans
}

// NewProvider counts the source's rows with one validating scan and
// returns a provider ready to serve count requests. parallelism bounds
// per-chunk counting workers (<= 0 selects GOMAXPROCS) and never
// affects the counts. The context governs every subsequent scan: when
// it ends, in-flight and future requests fail with its error.
func NewProvider(ctx context.Context, src *dataset.ChunkSource, parallelism int) (*Provider, error) {
	p := &Provider{src: src, ctx: ctx, par: parallelism, tables: map[string]*marginal.Table{}}
	n, err := p.scanRows(nil, nil)
	if err != nil {
		return nil, err
	}
	p.n = n
	return p, nil
}

// Rows implements marginal.CountSource.
func (p *Provider) Rows() int { return p.n }

// Err returns the sticky scan error, if any.
func (p *Provider) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Stats reports the number of full source scans performed and the
// cumulative rows read — the out-of-core cost counters surfaced by
// telemetry and asserted by the one-scan-per-iteration tests.
func (p *Provider) Stats() (scans, rowsRead int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.scans, p.rows
}

func tableKey(parents []marginal.Var, child marginal.Var) string {
	return varsKey(append(append([]marginal.Var(nil), parents...), child))
}

// Prefetch implements marginal.BatchCountSource: one scan satisfies
// every missing table of the batch, and the table cache is trimmed to
// exactly the batch's tables — the provider's resident set is bounded
// by one batch, one chunk, and the scan accumulators.
func (p *Provider) Prefetch(ctx context.Context, reqs []marginal.CountRequest) error {
	p.mu.Lock()
	if p.err != nil {
		p.mu.Unlock()
		return p.err
	}
	keep := map[string]*marginal.Table{}
	var missing []marginal.CountRequest
	for _, req := range reqs {
		var absent []marginal.Var
		for _, child := range req.Children {
			key := tableKey(req.Parents, child)
			if t, ok := keep[key]; ok && t != nil {
				continue
			}
			if t, ok := p.tables[key]; ok {
				keep[key] = t
				continue
			}
			keep[key] = nil
			absent = append(absent, child)
		}
		if len(absent) > 0 {
			missing = append(missing, marginal.CountRequest{Parents: req.Parents, Children: absent})
		}
	}
	p.mu.Unlock()

	if len(missing) > 0 {
		built, err := p.scanTables(ctx, missing)
		if err != nil {
			return err
		}
		for key, t := range built {
			keep[key] = t
		}
	}

	p.mu.Lock()
	if p.err == nil {
		p.tables = keep
	}
	err := p.err
	p.mu.Unlock()
	return err
}

// CountTables implements marginal.CountSource. Tables the last
// Prefetch covered are served from memory; anything else costs a scan.
// Returned tables are copies — callers may normalize or noise them.
func (p *Provider) CountTables(parents []marginal.Var, children []marginal.Var) ([]*marginal.Table, error) {
	p.mu.Lock()
	if p.err != nil {
		p.mu.Unlock()
		return nil, p.err
	}
	out := make([]*marginal.Table, len(children))
	var absent []marginal.Var
	for j, child := range children {
		if t, ok := p.tables[tableKey(parents, child)]; ok {
			out[j] = t.Clone()
		} else {
			absent = append(absent, child)
		}
	}
	p.mu.Unlock()
	if len(absent) == 0 {
		return out, nil
	}

	built, err := p.scanTables(p.ctx, []marginal.CountRequest{{Parents: parents, Children: absent}})
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	for key, t := range built {
		p.tables[key] = t
	}
	for j, child := range children {
		if out[j] == nil {
			out[j] = p.tables[tableKey(parents, child)].Clone()
		}
	}
	p.mu.Unlock()
	return out, nil
}

// scanTables performs one full scan accumulating every requested
// table. Accumulation is integer addition in float64 cells, exact for
// any chunking — the resulting tables are bit-identical to
// ParentIndex.CountChildren over the materialized dataset.
func (p *Provider) scanTables(ctx context.Context, reqs []marginal.CountRequest) (map[string]*marginal.Table, error) {
	vds := dataset.NewVirtual(p.src.Attrs, p.n)
	accs := make([][]*marginal.Table, len(reqs))
	for i, req := range reqs {
		if _, ok := marginal.ParentConfigs(vds, req.Parents); !ok {
			// The in-memory engine falls back to per-candidate row scans
			// here; out of core there are no rows to rescan. Unreachable
			// under θ-usefulness caps.
			return nil, p.fail(fmt.Errorf("counts: parent set %v overflows the code domain; not materializable out of core", req.Parents))
		}
		accs[i] = make([]*marginal.Table, len(req.Children))
		for j, child := range req.Children {
			accs[i][j] = marginal.NewTable(vds, append(append([]marginal.Var(nil), req.Parents...), child))
		}
	}

	rows, err := p.scanRows(ctx, func(chunk *dataset.Dataset) {
		for i, req := range reqs {
			ix := marginal.BuildParentIndex(chunk, req.Parents, p.par)
			ts := ix.CountChildren(chunk, req.Children, p.par)
			for j, t := range ts {
				dst := accs[i][j].P
				for c, v := range t.P {
					dst[c] += v
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if rows != p.n {
		return nil, p.fail(fmt.Errorf("%w: scan saw %d rows, expected %d", ErrSourceChanged, rows, p.n))
	}

	out := make(map[string]*marginal.Table, len(reqs))
	for i, req := range reqs {
		for j, child := range req.Children {
			out[tableKey(req.Parents, child)] = accs[i][j]
		}
	}
	return out, nil
}

// scanRows opens the source and walks every chunk through visit (nil
// visits just count), honoring both the provider's fit context and the
// per-call context. Errors are sticky.
func (p *Provider) scanRows(ctx context.Context, visit func(*dataset.Dataset)) (int, error) {
	sc, err := p.src.Open()
	if err != nil {
		return 0, p.fail(fmt.Errorf("counts: open source: %w", err))
	}
	defer sc.Close()
	rows := 0
	for {
		if err := p.ctxErr(ctx); err != nil {
			return rows, p.fail(err)
		}
		chunk, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return rows, p.fail(err)
		}
		if chunk.N() == 0 {
			continue
		}
		rows += chunk.N()
		if visit != nil {
			visit(chunk)
		}
	}
	p.mu.Lock()
	p.scans++
	p.rows += int64(rows)
	p.mu.Unlock()
	return rows, nil
}

func (p *Provider) ctxErr(ctx context.Context) error {
	if p.ctx != nil {
		if err := p.ctx.Err(); err != nil {
			return err
		}
	}
	if ctx != nil {
		return ctx.Err()
	}
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
