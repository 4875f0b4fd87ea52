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
// Both formats share one row loop: the constructor encodes every
// (attribute, code) cell once, with its separator or JSON key in
// front, so a row is one copied cell per attribute plus the row end.
type RowWriter struct {
	w     io.Writer
	cells [][][]byte // cells[a][code]: the encoded cell, led by its separator or key
	end   []byte     // row end: "\n" (CSV) or "}\n" (JSONL)
	buf   []byte     // encoding buffer, reused across WriteRows calls
}

// NewRowWriter prepares a writer of format f for the given schema. A
// CSV writer writes its header row at once, so an output of no rows
// still carries it.
func NewRowWriter(w io.Writer, attrs []Attribute, f Format) (*RowWriter, error) {
	switch f {
	case FormatCSV:
		rw := &RowWriter{w: w, cells: make([][][]byte, len(attrs)), end: []byte("\n")}
		field := newCSVField()
		var header []byte
		for a := range attrs {
			var sep []byte
			if a > 0 {
				sep = []byte{','}
			}
			rw.cells[a] = cellTable(&attrs[a], sep, field)
			header = field(append(header, sep...), attrs[a].Name)
		}
		if _, err := w.Write(append(header, '\n')); err != nil {
			return nil, fmt.Errorf("dataset: write header: %w", err)
		}
		return rw, nil
	case FormatJSONL:
		return NewJSONLWriter(w, attrs), nil
	default:
		return nil, fmt.Errorf("dataset: unknown format %v", f)
	}
}

// NewJSONLWriter is NewRowWriter for FormatJSONL, which cannot fail.
func NewJSONLWriter(w io.Writer, attrs []Attribute) *RowWriter {
	rw := &RowWriter{w: w, cells: make([][][]byte, len(attrs)), end: []byte("}\n")}
	for a := range attrs {
		prefix := jsonString([]byte{','}, attrs[a].Name)
		if a == 0 {
			prefix[0] = '{'
		}
		value := jsonString
		if attrs[a].Kind == Continuous {
			value = func(dst []byte, text string) []byte { return append(dst, text...) }
		}
		rw.cells[a] = cellTable(&attrs[a], append(prefix, ':'), value)
	}
	return rw
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
