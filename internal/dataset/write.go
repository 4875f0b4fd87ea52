package dataset

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// Format selects a row wire encoding.
type Format int

const (
	// FormatCSV emits a header row then one decoded CSV row per record.
	FormatCSV Format = iota
	// FormatJSONL emits one JSON object per record, keys in schema
	// order, no header.
	FormatJSONL
)

// String names the format as used in privbayesd query parameters.
func (f Format) String() string {
	switch f {
	case FormatCSV:
		return "csv"
	case FormatJSONL:
		return "jsonl"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// writeChunk bounds each write RowWriter hands its underlying writer.
const writeChunk = 64 << 10

// RowWriter is the one chunk writer of the row wire formats:
// Dataset.WriteCSV, core.Model.SynthesizeTo and privbayesd's synthesize
// endpoint all emit rows through it, a large output as a sequence of
// small chunk datasets through one long-lived writer. Each code decodes
// back to its label (categorical) or bin center (continuous).
//
// Both formats share one row loop over a RowCells table, so a row is
// one copied cell per attribute plus the row end.
type RowWriter struct {
	w     io.Writer
	cells [][][]byte // a RowCells table's cells, shared read-only
	end   []byte     // its row end
	buf   []byte     // encoding buffer, reused across WriteRows calls
}

// RowCells is one schema's encoding in one row format: every
// (attribute, code) cell encoded once, with its separator or JSON key
// in front. It is never modified once built, so one table can serve
// any number of RowWriters at once; a server builds it once per model
// and format.
type RowCells struct {
	header []byte     // CSV header row; nil for JSONL
	cells  [][][]byte // cells[a][code]: the encoded cell, led by its separator or key
	end    []byte     // row end: "\n" (CSV) or "}\n" (JSONL)
}

// NewRowCells encodes the schema's cells in format f.
func NewRowCells(attrs []Attribute, f Format) (*RowCells, error) {
	switch f {
	case FormatCSV:
		c := &RowCells{cells: make([][][]byte, len(attrs)), end: []byte("\n")}
		field := newCSVField()
		for a := range attrs {
			var sep []byte
			if a > 0 {
				sep = []byte{','}
			}
			c.cells[a] = cellTable(&attrs[a], sep, field)
			c.header = field(append(c.header, sep...), attrs[a].Name)
		}
		c.header = append(c.header, '\n')
		return c, nil
	case FormatJSONL:
		return jsonlCells(attrs), nil
	default:
		return nil, fmt.Errorf("dataset: unknown format %v", f)
	}
}

// NewWriter returns a writer of the cells' format over w. A CSV writer
// writes its header row at once, so an output of no rows still carries
// it.
func (c *RowCells) NewWriter(w io.Writer) (*RowWriter, error) {
	if c.header != nil {
		if _, err := w.Write(c.header); err != nil {
			return nil, fmt.Errorf("dataset: write header: %w", err)
		}
	}
	return &RowWriter{w: w, cells: c.cells, end: c.end}, nil
}

// NewRowWriter prepares a writer of format f for the given schema,
// encoding its cells for this writer alone (see RowCells).
func NewRowWriter(w io.Writer, attrs []Attribute, f Format) (*RowWriter, error) {
	c, err := NewRowCells(attrs, f)
	if err != nil {
		return nil, err
	}
	return c.NewWriter(w)
}

// NewJSONLWriter is NewRowWriter for FormatJSONL, which cannot fail.
func NewJSONLWriter(w io.Writer, attrs []Attribute) *RowWriter {
	c := jsonlCells(attrs)
	return &RowWriter{w: w, cells: c.cells, end: c.end}
}

func jsonlCells(attrs []Attribute) *RowCells {
	c := &RowCells{cells: make([][][]byte, len(attrs)), end: []byte("}\n")}
	for a := range attrs {
		prefix := jsonString([]byte{','}, attrs[a].Name)
		if a == 0 {
			prefix[0] = '{'
		}
		value := jsonString
		if attrs[a].Kind == Continuous {
			value = func(dst []byte, text string) []byte { return append(dst, text...) }
		}
		c.cells[a] = cellTable(&attrs[a], append(prefix, ':'), value)
	}
	return c
}

// cellTable encodes every code of a as prefix followed by value's
// encoding of the code's Text. The cells share backing arrays: a cell
// keeps pointing into an array append has outgrown, which stays intact.
func cellTable(a *Attribute, prefix []byte, value func(dst []byte, text string) []byte) [][]byte {
	cells := make([][]byte, a.Size())
	var flat []byte
	for code := range cells {
		start := len(flat)
		flat = value(append(flat, prefix...), a.Text(code))
		cells[code] = flat[start:len(flat):len(flat)]
	}
	return cells
}

// newCSVField returns an encoder of lone CSV fields. Each field goes
// through encoding/csv as a record of its own, so quoting matches a
// csv.Writer's byte for byte, except that an empty field is written as
// "": unquoted, a row holding one empty field would be a blank line,
// which CSV readers skip.
func newCSVField() func(dst []byte, text string) []byte {
	var b bytes.Buffer
	cw := csv.NewWriter(&b)
	return func(dst []byte, text string) []byte {
		if text == "" {
			return append(dst, `""`...)
		}
		b.Reset()
		cw.Write([]string{text}) // a bytes.Buffer write cannot fail
		cw.Flush()
		return append(dst, bytes.TrimSuffix(b.Bytes(), []byte{'\n'})...)
	}
}

// jsonString appends text as a JSON string.
func jsonString(dst []byte, text string) []byte {
	s, _ := json.Marshal(text) // marshalling a string cannot fail
	return append(dst, s...)
}

// WriteRows encodes rows [lo, hi) of d and flushes them to the
// underlying writer, handing it at most 64 KiB at a time, so each
// chunk is a few syscall-sized bursts to the client.
func (rw *RowWriter) WriteRows(d *Dataset, lo, hi int) error {
	if lo < 0 || hi > d.n || lo > hi {
		return fmt.Errorf("dataset: row range [%d, %d) outside [0, %d)", lo, hi, d.n)
	}
	buf := rw.buf[:0]
	for r := lo; r < hi; r++ {
		for a, cells := range rw.cells {
			buf = append(buf, cells[d.Value(r, a)]...)
		}
		buf = append(buf, rw.end...)
		for len(buf) >= writeChunk {
			if _, err := rw.w.Write(buf[:writeChunk]); err != nil {
				return err
			}
			buf = buf[:copy(buf, buf[writeChunk:])]
		}
	}
	rw.buf = buf
	if len(buf) == 0 {
		return nil
	}
	_, err := rw.w.Write(buf)
	return err
}

// WriteCSV writes the dataset with a header row, decoding each code back
// to its label (categorical) or bin center (continuous).
func (d *Dataset) WriteCSV(w io.Writer) error {
	rw, err := NewRowWriter(w, d.attrs, FormatCSV)
	if err != nil {
		return err
	}
	return rw.WriteRows(d, 0, d.n)
}
