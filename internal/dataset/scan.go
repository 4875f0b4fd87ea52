package dataset

// Row decoding: the one place CSV and JSONL rows become attribute
// codes. A Scanner yields the rows of a source as a sequence of small
// Dataset chunks, so text of any length decodes through bounded
// staging; ScanRows opens the same chunk loop to the curator's row
// logs. One drain loop packs a scanner's chunks into one bit-packed
// in-memory dataset: ReadCSV and ReadJSONL run it over a reader, and
// Drain over a ChunkSource, which is how the out-of-core fit reads its
// source exactly once. A ChunkSource makes a scanner reopenable, so
// one source can back many fits and the curator's count-store scans.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// DefaultChunkRows is the chunk size scanners use when the caller does
// not choose one. A chunk costs at most 128 KiB × D(attributes) of
// resident memory (2 bytes per cell for wide columns; bit-packed
// low-arity columns cost 1/8 to 1/16 of that).
const DefaultChunkRows = 1 << 16

// MaxJSONLLine bounds one JSONL row's encoded length, mirroring
// csv.Reader's protection against unbounded single-record growth on
// untrusted streams.
const MaxJSONLLine = 1 << 20

// Scanner yields the rows of a source as bounded Dataset chunks. Next
// returns io.EOF after the final chunk; any other error is sticky.
// Close releases the underlying source (a no-op for in-memory
// scanners) and must be called even after an error.
type Scanner interface {
	Next() (*Dataset, error)
	Close() error
}

// ChunkSource is a reopenable chunked row source: Open starts a fresh
// scan from the first row, reading the source as it is then.
type ChunkSource struct {
	// Attrs is the schema every scan decodes against.
	Attrs []Attribute
	// ChunkRows bounds the rows per chunk (<= 0 selects
	// DefaultChunkRows).
	ChunkRows int
	// Open starts a fresh scan over the source.
	Open func() (Scanner, error)
}

// CSVFile returns a re-scannable source over a headered CSV file.
func CSVFile(path string, attrs []Attribute, chunkRows int) *ChunkSource {
	return &ChunkSource{Attrs: attrs, ChunkRows: chunkRows, Open: func() (Scanner, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc, err := scanCSV(f, attrs, chunkRows)
		if err != nil {
			f.Close()
			return nil, err
		}
		sc.closer = f
		return sc, nil
	}}
}

// JSONLFile returns a re-scannable source over a JSONL file (one
// row object per line).
func JSONLFile(path string, attrs []Attribute, chunkRows int) *ChunkSource {
	return &ChunkSource{Attrs: attrs, ChunkRows: chunkRows, Open: func() (Scanner, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := scanJSONL(f, attrs, chunkRows)
		sc.closer = f
		return sc, nil
	}}
}

// DatasetSource wraps an in-memory dataset as a re-scannable source;
// chunks are zero-copy column views. It is how the in-memory and
// out-of-core fit paths are compared like for like.
func DatasetSource(d *Dataset, chunkRows int) *ChunkSource {
	return &ChunkSource{Attrs: d.Attrs(), ChunkRows: chunkRows, Open: func() (Scanner, error) {
		return ScanDataset(d, chunkRows), nil
	}}
}

// ScanCSV returns a scanner over headered CSV that decodes rows
// against the schema, chunkRows rows at a time. The header is read and
// validated immediately.
func ScanCSV(r io.Reader, attrs []Attribute, chunkRows int) (Scanner, error) {
	s, err := scanCSV(r, attrs, chunkRows)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// ScanJSONL returns a scanner over newline-delimited JSON rows — the
// format FormatJSONL writes: one object per line, categorical values
// as label strings, continuous values as numbers (binned on decode).
// Fields may appear in any order; every schema attribute must be
// present and no others. Blank lines are skipped.
func ScanJSONL(r io.Reader, attrs []Attribute, chunkRows int) Scanner {
	return scanJSONL(r, attrs, chunkRows)
}

// ReadCSV reads records that match the given schema from CSV with a
// header row. Categorical cells must be known labels; continuous cells
// are parsed as finite floats and binned.
//
// It is ScanCSV drained into one dataset: rows are decoded straight
// off the reader, so the whole file is never held in memory beyond the
// encoded dataset (at most 2 bytes per cell), and it is safe to point
// at a large upload stream. Errors report the 1-based data row and
// column of the offending cell.
func ReadCSV(r io.Reader, attrs []Attribute) (*Dataset, error) {
	s, err := scanCSV(r, attrs, readChunkRows)
	if err != nil {
		return nil, err
	}
	return readAll(context.TODO(), attrs, s, 0)
}

// ErrTooManyRows reports a ReadJSONL input longer than its row cap.
var ErrTooManyRows = errors.New("dataset: too many rows")

// ReadJSONL is ScanJSONL drained into one dataset. maxRows > 0 caps
// the rows read: a longer input fails with ErrTooManyRows as soon as
// the block of rows that crosses the cap is decoded.
func ReadJSONL(r io.Reader, attrs []Attribute, maxRows int) (*Dataset, error) {
	return readAll(context.TODO(), attrs, scanJSONL(r, attrs, readChunkRows), maxRows)
}

// readChunkRows is the block ReadCSV and ReadJSONL decode at a time
// before packing it into the one growing dataset.
const readChunkRows = 4096

// Drain reads one full scan of src into one bit-packed in-memory
// dataset: a binary column costs 1 bit a row, one of arity 3–4 costs
// 2 bits, and wider ones a byte or two. Only one chunk is staged at a
// time. ctx is checked before each chunk; when it ends, Drain returns
// context.Cause(ctx).
func Drain(ctx context.Context, src *ChunkSource) (*Dataset, error) {
	sc, err := src.Open()
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	return readAll(ctx, src.Attrs, sc, 0)
}

// readAll appends every chunk of sc to one dataset over attrs,
// checking ctx before each chunk. maxRows > 0 caps the rows: a longer
// input fails with ErrTooManyRows as soon as the chunk that crosses the
// cap is decoded.
func readAll(ctx context.Context, attrs []Attribute, sc Scanner, maxRows int) (*Dataset, error) {
	d := New(attrs)
	var buf []uint16
	for {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		chunk, err := sc.Next()
		if err == io.EOF {
			return d, nil
		}
		if err != nil {
			return nil, err
		}
		if maxRows > 0 && d.N()+chunk.N() > maxRows {
			return nil, ErrTooManyRows
		}
		if buf, err = d.appendChunk(chunk, buf); err != nil {
			return nil, err
		}
	}
}

// ScanRows returns the chunk loop over a row source that read decodes
// one row at a time: read writes the next row's codes into rec, each
// below its attribute's Size, and returns io.EOF after the last row.
// Close closes closer (nil for none). It is how row formats outside
// this package (the curator's row logs) reach the one chunk loop.
func ScanRows(attrs []Attribute, chunkRows int, read func(rec []uint16) error, closer io.Closer) Scanner {
	s := newRowScanner(attrs, chunkRows, read)
	s.closer = closer
	return s
}

// rowScanner is the one chunk loop behind every decoder. read decodes
// the next row into rec and returns io.EOF after the last one; the
// loop stages codes column-major, so AppendColumns packs bit-packed
// columns 64 codes per word instead of paying per-row bit surgery. The
// stage is reused across chunks.
type rowScanner struct {
	read   func(rec []uint16) error
	attrs  []Attribute
	chunk  int
	rec    []uint16
	stage  [][]uint16
	err    error // sticky: the first failure, or io.EOF after the last row
	closer io.Closer
}

func newRowScanner(attrs []Attribute, chunkRows int, read func(rec []uint16) error) *rowScanner {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	return &rowScanner{read: read, attrs: attrs, chunk: chunkRows,
		rec: make([]uint16, len(attrs)), stage: make([][]uint16, len(attrs))}
}

// Next decodes up to one chunk of rows into the stage and packs them.
// It returns io.EOF only when no row is left.
func (s *rowScanner) Next() (*Dataset, error) {
	if s.err != nil {
		return nil, s.err
	}
	for c := range s.stage {
		s.stage[c] = s.stage[c][:0]
	}
	rows := 0
	for ; rows < s.chunk; rows++ {
		if err := s.read(s.rec); err != nil {
			s.err = err
			if err == io.EOF && rows > 0 {
				break
			}
			return nil, err
		}
		for c, v := range s.rec {
			s.stage[c] = append(s.stage[c], v)
		}
	}
	d := NewWithCapacity(s.attrs, rows)
	d.AppendColumns(s.stage)
	return d, nil
}

func (s *rowScanner) Close() error {
	if s.closer != nil {
		c := s.closer
		s.closer = nil
		return c.Close()
	}
	return nil
}

// scanCSV reads and validates the header, then returns the chunk loop
// over the CSV rows.
func scanCSV(r io.Reader, attrs []Attribute, chunkRows int) (*rowScanner, error) {
	cr := csv.NewReader(r)
	// Rows are encoded immediately, so the csv.Reader may reuse its
	// record buffer between rows instead of allocating per row.
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	if len(header) != len(attrs) {
		return nil, fmt.Errorf("dataset: header has %d columns, schema has %d", len(header), len(attrs))
	}
	for i, h := range header {
		if h != attrs[i].Name {
			return nil, fmt.Errorf("dataset: column %d is %q, schema expects %q", i+1, h, attrs[i].Name)
		}
	}
	rows := &csvRows{cr: cr, attrs: attrs}
	return newRowScanner(attrs, chunkRows, rows.read), nil
}

// csvRows decodes one CSV record per read.
type csvRows struct {
	cr    *csv.Reader
	attrs []Attribute
	row   int // 1-based data row (header excluded), for error reporting
}

func (r *csvRows) read(rec []uint16) error {
	cells, err := r.cr.Read()
	if err == io.EOF {
		return io.EOF
	}
	r.row++
	if err != nil {
		// csv.ParseError already carries the file line; add the
		// data-row number, which is what schema-level callers count.
		return fmt.Errorf("dataset: row %d: %w", r.row, err)
	}
	for c, cell := range cells {
		a := &r.attrs[c]
		if a.Kind == Continuous {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return fmt.Errorf("dataset: row %d, column %d (%s): %w", r.row, c+1, a.Name, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("dataset: row %d, column %d (%s): non-finite value %q", r.row, c+1, a.Name, cell)
			}
			rec[c] = uint16(a.Bin(v))
		} else {
			code := a.Code(cell)
			if code < 0 {
				return fmt.Errorf("dataset: row %d, column %d (%s): unknown label %q", r.row, c+1, a.Name, cell)
			}
			rec[c] = uint16(code)
		}
	}
	return nil
}

// scanJSONL returns the chunk loop over JSONL rows.
func scanJSONL(r io.Reader, attrs []Attribute, chunkRows int) *rowScanner {
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 0, 64<<10), MaxJSONLLine)
	rows := &jsonlRows{br: br, attrs: attrs}
	return newRowScanner(attrs, chunkRows, rows.read)
}

// jsonlRows decodes one non-blank JSONL line per read. Accepted rows
// are always in-domain: every code it writes is < the attribute's
// Size, so AppendColumns cannot panic.
type jsonlRows struct {
	br    *bufio.Scanner
	attrs []Attribute
	row   int // 1-based non-blank row, for error reporting
}

func (r *jsonlRows) read(rec []uint16) error {
	var line []byte
	for len(line) == 0 {
		if !r.br.Scan() {
			if err := r.br.Err(); err != nil {
				return fmt.Errorf("dataset: jsonl row %d: %w", r.row+1, err)
			}
			return io.EOF
		}
		line = bytes.TrimSpace(r.br.Bytes())
	}
	r.row++
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(line, &obj); err != nil {
		return fmt.Errorf("dataset: jsonl row %d: %w", r.row, err)
	}
	if len(obj) != len(r.attrs) {
		return fmt.Errorf("dataset: jsonl row %d: %d fields, schema has %d", r.row, len(obj), len(r.attrs))
	}
	for c := range r.attrs {
		a := &r.attrs[c]
		raw, ok := obj[a.Name]
		if !ok {
			return fmt.Errorf("dataset: jsonl row %d: missing field %q", r.row, a.Name)
		}
		if a.Kind == Continuous {
			var v float64
			if err := json.Unmarshal(raw, &v); err != nil {
				return fmt.Errorf("dataset: jsonl row %d, field %q: %w", r.row, a.Name, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("dataset: jsonl row %d, field %q: non-finite value", r.row, a.Name)
			}
			rec[c] = uint16(a.Bin(v))
		} else {
			var label string
			if err := json.Unmarshal(raw, &label); err != nil {
				return fmt.Errorf("dataset: jsonl row %d, field %q: %w", r.row, a.Name, err)
			}
			code := a.Code(label)
			if code < 0 {
				return fmt.Errorf("dataset: jsonl row %d, field %q: unknown label %q", r.row, a.Name, label)
			}
			rec[c] = uint16(code)
		}
	}
	return nil
}

// ScanDataset yields an in-memory dataset as zero-copy chunk views.
func ScanDataset(d *Dataset, chunkRows int) Scanner {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	return &sliceScanner{d: d, chunk: chunkRows}
}

type sliceScanner struct {
	d     *Dataset
	chunk int
	lo    int
}

func (s *sliceScanner) Next() (*Dataset, error) {
	if s.lo >= s.d.N() {
		return nil, io.EOF
	}
	hi := min(s.lo+s.chunk, s.d.N())
	c := s.d.Slice(s.lo, hi)
	s.lo = hi
	return c, nil
}

func (s *sliceScanner) Close() error { return nil }
