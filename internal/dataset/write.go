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

// RowWriter is the one chunk writer of the row wire formats:
// Dataset.WriteCSV, core.Model.SynthesizeTo and privbayesd's synthesize
// endpoint all emit rows through it, a large output as a sequence of
// small chunk datasets through one long-lived writer. Each code decodes
// back to its label (categorical) or bin center (continuous).
type RowWriter struct {
	attrs []Attribute

	// FormatCSV: cw is set, rec is the row scratch.
	cw  *csv.Writer
	rec []string

	// FormatJSONL: attribute names and categorical labels are
	// JSON-escaped once up front, so the per-row loop only copies bytes.
	w       io.Writer
	names   [][]byte   // `"name":` per attribute
	labels  [][][]byte // escaped label per categorical code; nil for continuous
	buf     bytes.Buffer
	scratch []byte // float-formatting scratch, reused across cells
}

// NewRowWriter prepares a writer of format f for the given schema. A
// CSV writer writes its header row at once, so an output of no rows
// still carries it.
func NewRowWriter(w io.Writer, attrs []Attribute, f Format) (*RowWriter, error) {
	switch f {
	case FormatCSV:
		rw := &RowWriter{attrs: attrs, cw: csv.NewWriter(w), rec: make([]string, len(attrs))}
		for i := range attrs {
			rw.rec[i] = attrs[i].Name
		}
		if err := rw.cw.WriteAll([][]string{rw.rec}); err != nil {
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
	rw := &RowWriter{attrs: attrs, w: w, names: make([][]byte, len(attrs)), labels: make([][][]byte, len(attrs))}
	for i := range attrs {
		a := &attrs[i]
		name, _ := json.Marshal(a.Name)
		rw.names[i] = append(name, ':')
		if a.Kind == Categorical {
			codes := make([][]byte, a.Size())
			for c := range codes {
				codes[c], _ = json.Marshal(a.Label(c))
			}
			rw.labels[i] = codes
		}
	}
	return rw
}

// WriteRows encodes rows [lo, hi) of d and flushes them to the
// underlying writer, so each chunk is one syscall-sized burst to the
// client.
func (rw *RowWriter) WriteRows(d *Dataset, lo, hi int) error {
	if lo < 0 || hi > d.n || lo > hi {
		return fmt.Errorf("dataset: row range [%d, %d) outside [0, %d)", lo, hi, d.n)
	}
	if rw.cw != nil {
		return rw.writeCSV(d, lo, hi)
	}
	return rw.writeJSONL(d, lo, hi)
}

func (rw *RowWriter) writeCSV(d *Dataset, lo, hi int) error {
	for r := lo; r < hi; r++ {
		for c := range rw.rec {
			rw.rec[c] = rw.attrs[c].Text(d.Value(r, c))
		}
		if err := rw.cw.Write(rw.rec); err != nil {
			return fmt.Errorf("dataset: write row %d: %w", r+1, err)
		}
	}
	rw.cw.Flush()
	return rw.cw.Error()
}

func (rw *RowWriter) writeJSONL(d *Dataset, lo, hi int) error {
	rw.buf.Reset()
	for r := lo; r < hi; r++ {
		rw.buf.WriteByte('{')
		for c := range rw.attrs {
			if c > 0 {
				rw.buf.WriteByte(',')
			}
			rw.buf.Write(rw.names[c])
			code := d.Value(r, c)
			if rw.labels[c] != nil {
				rw.buf.Write(rw.labels[c][code])
			} else {
				rw.scratch = rw.attrs[c].appendBinCenter(rw.scratch[:0], code)
				rw.buf.Write(rw.scratch)
			}
		}
		rw.buf.WriteString("}\n")
	}
	_, err := rw.w.Write(rw.buf.Bytes())
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
