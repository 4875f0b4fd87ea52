package counts

import (
	"context"

	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
)

// Provider is the count source behind privbayes.FitScanner. NewProvider
// reads its row source once, into one bit-packed in-memory dataset, and
// every CountTables is answered from a marginal.MemorySource over it,
// so the fit that follows is the in-memory fit. The rows cost 1 bit a
// cell for binary attributes, 2 bits up to arity 4 and at most 2 bytes
// otherwise.
type Provider struct {
	*marginal.MemorySource
}

// NewProvider decodes the source with one scan, checking ctx between
// chunks, and returns a provider over the decoded rows. parallelism
// bounds the counting workers (<= 0 selects GOMAXPROCS) and never
// affects the counts.
func NewProvider(ctx context.Context, src *dataset.ChunkSource, parallelism int) (*Provider, error) {
	ds, err := dataset.Drain(ctx, src)
	if err != nil {
		return nil, err
	}
	return &Provider{marginal.NewMemorySource(ds, parallelism)}, nil
}

// Stats reports the source scans made and the rows they read: one scan
// of Rows rows.
func (p *Provider) Stats() (scans, rowsRead int64) { return 1, int64(p.Rows()) }

// Prefetch does nothing: every table is counted from memory on request.
func (p *Provider) Prefetch(context.Context, []marginal.CountRequest) error { return nil }
