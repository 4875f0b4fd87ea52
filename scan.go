package privbayes

// Out-of-core fitting. FitScanner fits straight from a CSV or JSONL
// file (or any chunked source): it reads the source once, one chunk at
// a time, into bit-packed columns — 1 bit a cell for binary
// attributes, 2 bits up to arity 4, at most 2 bytes otherwise — and
// runs the in-memory fit's counting over them.
// Memory holds the packed rows plus one chunk of decode staging, never
// the text, and the fitted model is byte-identical to Fit over the same
// rows for the same seed, at every parallelism setting.

import (
	"context"

	"privbayes/internal/core"
	"privbayes/internal/counts"
	"privbayes/internal/dataset"
)

// ScanSource is a chunked, re-scannable dataset source: a schema plus
// a way to open a fresh pass over the rows. Build one with CSVSource,
// JSONLSource or DatasetSource. The same source can back any number of
// FitScanner calls; each call reads it once.
type ScanSource = dataset.ChunkSource

// DefaultChunkRows is the chunk size the source constructors use when
// given chunkRows <= 0.
const DefaultChunkRows = dataset.DefaultChunkRows

// CSVSource describes a headered CSV file as a re-scannable source.
// chunkRows bounds the rows staged for decoding at a time (<= 0
// selects DefaultChunkRows). The file is not opened until fitting
// starts, and each fit reads it once, as it is then.
func CSVSource(path string, attrs []Attribute, chunkRows int) *ScanSource {
	return dataset.CSVFile(path, attrs, chunkRows)
}

// JSONLSource describes a JSON-lines file (one object per row, fields
// keyed by attribute name) as a re-scannable source. See CSVSource for
// the chunking and when the file is read.
func JSONLSource(path string, attrs []Attribute, chunkRows int) *ScanSource {
	return dataset.JSONLFile(path, attrs, chunkRows)
}

// DatasetSource adapts an in-memory dataset to the scanner interface —
// chunks are zero-copy views — so scanner-path code can be exercised
// (and its bit-identity to Fit verified) without touching disk.
func DatasetSource(ds *Dataset, chunkRows int) *ScanSource {
	return dataset.DatasetSource(ds, chunkRows)
}

// FitScanner learns a PrivBayes model from a chunked source under
// ε-differential privacy: the out-of-core counterpart of Fit. It reads
// the source once, checking ctx between chunks, into bit-packed
// columns, then fits from them in memory. For a fixed seed the result
// is byte-identical to Fit over the same rows at every parallelism.
func FitScanner(ctx context.Context, src *ScanSource, opts ...Option) (*Model, error) {
	opt, err := resolve(opts).toCoreAttrs(src.Attrs)
	if err != nil {
		return nil, err
	}
	p, err := counts.NewProvider(ctx, src, opt.Parallelism)
	if err != nil {
		return nil, err
	}
	return core.FitCountsContext(ctx, src.Attrs, p, opt)
}
