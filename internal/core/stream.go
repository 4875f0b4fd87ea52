package core

import (
	"context"
	"fmt"
	"io"
	"iter"

	"privbayes/internal/dataset"
)

// StreamChunkRows is the row granularity of streaming synthesis:
// Synthesize and SynthesizeTo generate this many rows at a time, so
// per-call memory is bounded by the chunk no matter how many rows are
// requested. It must be a multiple of the sampler's internal 2048-row
// chunk: each burst then draws exactly the split-RNG seeds one
// monolithic SampleP call would draw for those rows, which is what
// makes a stream byte-identical to SampleP for a fixed (model, n,
// seed). privbayesd's streaming endpoint uses the same granularity.
const StreamChunkRows = 16_384

// Row is one synthetic record: the encoded value (attribute code) per
// attribute, in schema order. Rows yielded by Synthesize are fresh
// slices owned by the consumer. Decode codes with Model.AppendRowText
// or the dataset.Attribute accessors.
type Row []uint16

// Format selects the wire encoding of SynthesizeTo; the encodings
// themselves live in internal/dataset.
type Format = dataset.Format

const (
	// FormatCSV emits a header row then one decoded CSV row per record.
	FormatCSV = dataset.FormatCSV
	// FormatJSONL emits one JSON object per record, keys in schema
	// order, no header.
	FormatJSONL = dataset.FormatJSONL
)

// synthConfig is the resolved option set of one streaming-synthesis
// call.
type synthConfig struct {
	source      Source
	parallelism int
	progress    *progressSink
}

// SynthOption configures Model.Synthesize and Model.SynthesizeTo.
type SynthOption func(*synthConfig)

// SynthSource sets the randomness source of the stream. Unset (or a
// zero Source) draws a cryptographic seed; fix the seed for replay.
func SynthSource(src Source) SynthOption {
	return func(c *synthConfig) { c.source = src }
}

// SynthSeed is shorthand for SynthSource(NewSource(seed)).
func SynthSeed(seed int64) SynthOption { return SynthSource(NewSource(seed)) }

// SynthParallelism bounds the sampling worker pool per generated chunk;
// <= 0 (the default) uses all CPU cores. The emitted rows are
// byte-identical at every setting — parallelism only changes how fast
// chunks are produced.
func SynthParallelism(p int) SynthOption {
	return func(c *synthConfig) { c.parallelism = p }
}

// SynthProgress registers a callback receiving PhaseSampling events
// (Done/Total in rows) as chunks are generated. Events are delivered
// serially.
func SynthProgress(fn func(ProgressEvent)) SynthOption {
	return func(c *synthConfig) { c.progress = newProgressSink(fn) }
}

func resolveSynth(opts []SynthOption) synthConfig {
	var c synthConfig
	for _, o := range opts {
		o(&c)
	}
	c.source = c.source.orCrypto()
	return c
}

// Synthesize streams n synthetic rows as a Go iterator. Rows are
// generated in StreamChunkRows bursts through the chunked parallel
// sampler and yielded one at a time, so memory stays bounded by the
// chunk regardless of n; for a fixed (model, n, seed) the yielded rows
// are byte-identical to one monolithic SampleP call at any
// parallelism, so a stream can be validated against — or replaced by —
// batch synthesis at will.
//
// The iterator yields (row, nil) for each record; if ctx ends
// mid-stream it yields one final (nil, ctx.Err()) and stops. Breaking
// out of the loop early is always safe and leaks nothing — generation
// happens on the consumer's goroutine. Sampling from a fitted model
// incurs no further privacy cost, so n is unbounded.
//
//	for row, err := range model.Synthesize(ctx, 1_000_000, core.SynthSeed(7)) {
//		if err != nil { ... }
//		use(row)
//	}
func (m *Model) Synthesize(ctx context.Context, n int, opts ...SynthOption) iter.Seq2[Row, error] {
	cfg := resolveSynth(opts)
	return func(yield func(Row, error) bool) {
		if n < 0 {
			yield(nil, fmt.Errorf("core: negative row count %d", n))
			return
		}
		rng := cfg.source.Rand()
		cfg.progress.start(PhaseSampling, n)
		for lo := 0; lo < n; lo += StreamChunkRows {
			rows := min(StreamChunkRows, n-lo)
			chunk, err := m.SampleContext(ctx, rows, rng, cfg.parallelism)
			if err != nil {
				yield(nil, err)
				return
			}
			for r := 0; r < rows; r++ {
				if err := ctx.Err(); err != nil {
					yield(nil, err)
					return
				}
				if !yield(Row(chunk.Record(r, nil)), nil) {
					return
				}
			}
			cfg.progress.add(PhaseSampling, rows, n)
		}
	}
}

// SynthesizeTo streams n synthetic rows to w in the given format —
// the write-side twin of Synthesize, generating and encoding one
// StreamChunkRows burst at a time. CSV output carries a header row,
// also when n is 0, and matches Dataset.WriteCSV of the equivalent
// SampleP call byte for byte; JSONL matches privbayesd's synthesize
// endpoint. A cancelled ctx stops between bursts (and mid-burst inside
// the sampler) and returns ctx.Err(); write failures return the
// writer's error.
func (m *Model) SynthesizeTo(ctx context.Context, w io.Writer, n int, format Format, opts ...SynthOption) error {
	if n < 0 {
		return fmt.Errorf("core: negative row count %d", n)
	}
	cfg := resolveSynth(opts)
	rng := cfg.source.Rand()

	rw, err := dataset.NewRowWriter(w, m.Attrs, format)
	if err != nil {
		return err
	}

	cfg.progress.start(PhaseSampling, n)
	for lo := 0; lo < n; lo += StreamChunkRows {
		rows := min(StreamChunkRows, n-lo)
		chunk, err := m.SampleContext(ctx, rows, rng, cfg.parallelism)
		if err != nil {
			return err
		}
		if err := rw.WriteRows(chunk, 0, rows); err != nil {
			return err
		}
		cfg.progress.add(PhaseSampling, rows, n)
	}
	return nil
}

// AppendRowText appends the decoded text of each cell of row to dst —
// the categorical label or the formatted bin center, exactly as CSV
// output renders it (dataset.Attribute.Text) — and returns the
// extended slice.
func (m *Model) AppendRowText(dst []string, row Row) []string {
	for c, code := range row {
		dst = append(dst, m.Attrs[c].Text(int(code)))
	}
	return dst
}
