package dataset

// Chunked row scanners: the out-of-core counterpart of ReadCSV. A
// Scanner yields the rows of a source as a sequence of small Dataset
// chunks, so sufficient statistics can be accumulated over datasets far
// larger than RAM (the continuous-curator path); a ChunkSource makes a
// scanner reopenable, which is what lets the greedy fit re-scan the
// source once per iteration instead of materializing the rows.

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
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
// scan from the first row. Re-scanning is the contract the out-of-core
// fit path relies on — one full scan per greedy iteration — so Open
// must yield the same rows in the same order every time.
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
		sc, err := ScanCSV(f, attrs, chunkRows)
		if err != nil {
			f.Close()
			return nil, err
		}
		sc.(*csvScanner).closer = f
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
		sc := ScanJSONL(f, attrs, chunkRows).(*jsonlScanner)
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
// against the schema exactly as ReadCSV does, chunkRows rows at a
// time. The header is read and validated immediately.
func ScanCSV(r io.Reader, attrs []Attribute, chunkRows int) (Scanner, error) {
	cr := csv.NewReader(r)
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
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	return &csvScanner{cr: cr, attrs: attrs, chunk: chunkRows,
		rec: make([]uint16, len(attrs)), stage: newStage(len(attrs))}, nil
}

// newStage allocates the per-attribute staging buffers a scanner
// decodes rows into before bulk-packing them into a columnar chunk.
// Staging column-major lets bit-packed columns fill 64 codes per word
// (Dataset.AppendColumns) instead of paying per-row bit surgery, and
// the buffers are reused across chunks.
func newStage(d int) [][]uint16 {
	return make([][]uint16, d)
}

func resetStage(stage [][]uint16) {
	for c := range stage {
		stage[c] = stage[c][:0]
	}
}

type csvScanner struct {
	cr     *csv.Reader
	attrs  []Attribute
	chunk  int
	rec    []uint16
	stage  [][]uint16 // per-attribute chunk staging, reused across Next
	row    int        // 1-based data row, for error reporting
	err    error
	closer io.Closer
}

func (s *csvScanner) Next() (*Dataset, error) {
	if s.err != nil {
		return nil, s.err
	}
	resetStage(s.stage)
	rows := 0
	for rows < s.chunk {
		cells, err := s.cr.Read()
		if err == io.EOF {
			if rows == 0 {
				s.err = io.EOF
				return nil, io.EOF
			}
			break
		}
		s.row++
		if err != nil {
			s.err = fmt.Errorf("dataset: row %d: %w", s.row, err)
			return nil, s.err
		}
		if err := decodeCSVRow(s.attrs, cells, s.rec, s.row); err != nil {
			s.err = err
			return nil, s.err
		}
		for c, v := range s.rec {
			s.stage[c] = append(s.stage[c], v)
		}
		rows++
	}
	d := NewWithCapacity(s.attrs, rows)
	d.AppendColumns(s.stage)
	return d, nil
}

func (s *csvScanner) Close() error {
	if s.closer != nil {
		c := s.closer
		s.closer = nil
		return c.Close()
	}
	return nil
}

// decodeCSVRow encodes one row of raw cells against the schema. row is
// the 1-based data row for error reporting; the messages match
// ReadCSV's, which shares this helper.
func decodeCSVRow(attrs []Attribute, cells []string, rec []uint16, row int) error {
	for c, cell := range cells {
		a := &attrs[c]
		if a.Kind == Continuous {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return fmt.Errorf("dataset: row %d, column %d (%s): %w", row, c+1, a.Name, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("dataset: row %d, column %d (%s): non-finite value %q", row, c+1, a.Name, cell)
			}
			rec[c] = uint16(a.Bin(v))
		} else {
			code := a.Code(cell)
			if code < 0 {
				return fmt.Errorf("dataset: row %d, column %d (%s): unknown label %q", row, c+1, a.Name, cell)
			}
			rec[c] = uint16(code)
		}
	}
	return nil
}

// ScanJSONL returns a scanner over newline-delimited JSON rows — the
// format JSONLWriter emits: one object per line, categorical values as
// label strings, continuous values as numbers (binned on decode).
// Fields may appear in any order; every schema attribute must be
// present and no others. Blank lines are skipped.
func ScanJSONL(r io.Reader, attrs []Attribute, chunkRows int) Scanner {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 0, 64<<10), MaxJSONLLine)
	return &jsonlScanner{br: br, attrs: attrs, chunk: chunkRows,
		rec: make([]uint16, len(attrs)), stage: newStage(len(attrs))}
}

type jsonlScanner struct {
	br     *bufio.Scanner
	attrs  []Attribute
	chunk  int
	rec    []uint16
	stage  [][]uint16 // per-attribute chunk staging, reused across Next
	row    int        // 1-based non-blank row, for error reporting
	err    error
	closer io.Closer
}

func (s *jsonlScanner) Next() (*Dataset, error) {
	if s.err != nil {
		return nil, s.err
	}
	resetStage(s.stage)
	rows := 0
	for rows < s.chunk {
		if !s.br.Scan() {
			if err := s.br.Err(); err != nil {
				s.err = fmt.Errorf("dataset: jsonl row %d: %w", s.row+1, err)
				return nil, s.err
			}
			if rows == 0 {
				s.err = io.EOF
				return nil, io.EOF
			}
			break
		}
		line := bytes.TrimSpace(s.br.Bytes())
		if len(line) == 0 {
			continue
		}
		s.row++
		if err := decodeJSONLRow(s.attrs, line, s.rec, s.row); err != nil {
			s.err = err
			return nil, s.err
		}
		for c, v := range s.rec {
			s.stage[c] = append(s.stage[c], v)
		}
		rows++
	}
	d := NewWithCapacity(s.attrs, rows)
	d.AppendColumns(s.stage)
	return d, nil
}

func (s *jsonlScanner) Close() error {
	if s.closer != nil {
		c := s.closer
		s.closer = nil
		return c.Close()
	}
	return nil
}

// decodeJSONLRow encodes one JSONL object against the schema. Accepted
// rows are always in-domain: every code it writes is < the attribute's
// Size, so Append cannot panic.
func decodeJSONLRow(attrs []Attribute, line []byte, rec []uint16, row int) error {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(line, &obj); err != nil {
		return fmt.Errorf("dataset: jsonl row %d: %w", row, err)
	}
	if len(obj) != len(attrs) {
		return fmt.Errorf("dataset: jsonl row %d: %d fields, schema has %d", row, len(obj), len(attrs))
	}
	for c := range attrs {
		a := &attrs[c]
		raw, ok := obj[a.Name]
		if !ok {
			return fmt.Errorf("dataset: jsonl row %d: missing field %q", row, a.Name)
		}
		if a.Kind == Continuous {
			var v float64
			if err := json.Unmarshal(raw, &v); err != nil {
				return fmt.Errorf("dataset: jsonl row %d, field %q: %w", row, a.Name, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("dataset: jsonl row %d, field %q: non-finite value", row, a.Name)
			}
			rec[c] = uint16(a.Bin(v))
		} else {
			var label string
			if err := json.Unmarshal(raw, &label); err != nil {
				return fmt.Errorf("dataset: jsonl row %d, field %q: %w", row, a.Name, err)
			}
			code := a.Code(label)
			if code < 0 {
				return fmt.Errorf("dataset: jsonl row %d, field %q: unknown label %q", row, a.Name, label)
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
