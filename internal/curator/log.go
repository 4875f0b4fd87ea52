package curator

// The per-dataset row log. Each curated dataset owns one append-only
// WAL (internal/wal) whose records are:
//
//	type 0 "schema": JSON dataset.AttrSpec array, the wire schema of
//	  POST /fit — written once at creation.
//	type 1 "rows":   [keyLen u16][key][d u16][nrows u32][values u16 LE]
//	  — one acknowledged append batch. The key is the client's
//	  idempotency key ("" for fire-and-forget appends).
//	type 2 "fit":    JSON fitMarker — a completed, published refit:
//	  model id, ε, the row count the fit covered, and the learned
//	  network, so a restart can rebuild the incremental count store
//	  without refitting.
//
// The WAL's fsync-then-acknowledge contract gives the curator its
// crash semantics for free: an acknowledged batch is on stable storage
// before the HTTP 200 leaves the process, and a batch torn by a crash
// was never acknowledged and vanishes at recovery. This file owns only
// the payload encodings: the framing is read by internal/wal alone,
// and logged rows reach a fit through internal/dataset's chunk loop.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"privbayes/internal/core"
	"privbayes/internal/dataset"
	"privbayes/internal/faultfs"
	"privbayes/internal/wal"
)

// Record type tags.
const (
	recSchema byte = 0
	recRows   byte = 1
	recFit    byte = 2
)

// MaxBatchRows bounds one append batch; larger ingests split into
// multiple batches client-side.
const MaxBatchRows = 1 << 20

// attrsEqual compares two schemas structurally (name, kind, domain).
func attrsEqual(a, b []dataset.Attribute) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Kind != b[i].Kind || a[i].Size() != b[i].Size() {
			return false
		}
	}
	return true
}

// fitMarker records one completed refit in the row log.
type fitMarker struct {
	ModelID  string       `json:"model_id"`
	Epsilon  float64      `json:"epsilon"`
	Rows     int64        `json:"rows"`  // row count the fit covered
	Kind     string       `json:"kind"`  // "cold", "incremental" or "recovered"
	K        int          `json:"k"`     // binary-mode anchor degree, -1 in general mode
	Score    int          `json:"score"` // score.Function that chose the network
	Network  core.Network `json:"network"`
	UnixNano int64        `json:"unix_nano"`
}

// marshalFitMarker builds the type-2 record payload.
func marshalFitMarker(fm *fitMarker) ([]byte, error) {
	body, err := json.Marshal(fm)
	if err != nil {
		return nil, err
	}
	return append([]byte{recFit}, body...), nil
}

func unmarshalFitMarker(payload []byte, fm *fitMarker) error {
	if err := json.Unmarshal(payload, fm); err != nil {
		return fmt.Errorf("curator: decode fit marker: %w", err)
	}
	if fm.ModelID == "" || fm.Rows <= 0 {
		return fmt.Errorf("curator: fit marker missing model id or rows")
	}
	return nil
}

// encodeSchema builds the type-0 record payload. A schema recovery's
// decodeSchema would reject is refused here, before it reaches the log.
func encodeSchema(attrs []dataset.Attribute) ([]byte, error) {
	specs := dataset.SpecsFromAttrs(attrs)
	if _, err := dataset.SchemaFromSpecs(specs); err != nil {
		return nil, err
	}
	body, err := json.Marshal(specs)
	if err != nil {
		return nil, err
	}
	return append([]byte{recSchema}, body...), nil
}

func decodeSchema(payload []byte) ([]dataset.Attribute, error) {
	var specs []dataset.AttrSpec
	if err := json.Unmarshal(payload, &specs); err != nil {
		return nil, fmt.Errorf("curator: decode stored schema: %w", err)
	}
	return dataset.SchemaFromSpecs(specs)
}

// encodeRows builds the type-1 record payload for one batch.
func encodeRows(key string, chunk *dataset.Dataset) ([]byte, error) {
	if len(key) > 1<<16-1 {
		return nil, fmt.Errorf("curator: batch key %d bytes exceeds 65535", len(key))
	}
	n, d := chunk.N(), chunk.D()
	if n == 0 {
		return nil, fmt.Errorf("curator: empty batch")
	}
	if n > MaxBatchRows {
		return nil, fmt.Errorf("curator: batch of %d rows exceeds cap %d", n, MaxBatchRows)
	}
	size := 1 + 2 + len(key) + 2 + 4 + n*d*2
	if size > 16<<20 {
		return nil, fmt.Errorf("curator: batch encodes to %d bytes, exceeding the record cap; split it", size)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, recRows)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(d))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for r := 0; r < n; r++ {
		for c := 0; c < d; c++ {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(chunk.Value(r, c)))
		}
	}
	return buf, nil
}

// rowsHeader is the decoded header of a type-1 record: the batch key,
// the geometry, and the offset of the value block within the payload.
type rowsHeader struct {
	key     string
	d, n    int
	valsOff int
}

func decodeRowsHeader(payload []byte) (rowsHeader, error) {
	var h rowsHeader
	if len(payload) < 2 {
		return h, fmt.Errorf("curator: rows record too short")
	}
	kl := int(binary.LittleEndian.Uint16(payload))
	off := 2 + kl
	if len(payload) < off+6 {
		return h, fmt.Errorf("curator: rows record too short")
	}
	h.key = string(payload[2 : 2+kl])
	h.d = int(binary.LittleEndian.Uint16(payload[off:]))
	h.n = int(binary.LittleEndian.Uint32(payload[off+2:]))
	h.valsOff = off + 6
	if h.d == 0 || h.n == 0 || h.n > MaxBatchRows {
		return h, fmt.Errorf("curator: implausible rows record geometry %dx%d", h.n, h.d)
	}
	if len(payload) != h.valsOff+h.n*h.d*2 {
		return h, fmt.Errorf("curator: rows record length %d does not match %dx%d geometry", len(payload), h.n, h.d)
	}
	return h, nil
}

// decodeRow decodes the first row of a rows record's value block into
// rec, checking every code against its attribute's domain.
func decodeRow(rec []uint16, vals []byte, attrs []dataset.Attribute) error {
	for c := range rec {
		v := binary.LittleEndian.Uint16(vals[2*c:])
		if int(v) >= attrs[c].Size() {
			return fmt.Errorf("column %d: code %d out of domain [0, %d)", c, v, attrs[c].Size())
		}
		rec[c] = v
	}
	return nil
}

// rowLogSource builds a re-scannable chunk source over the row log at
// path, read through fs: the out-of-core fit path of a cold refit and
// the count-store seed. The WAL reader yields intact records in order
// and only type-1 records contribute rows. maxRows > 0 bounds the scan
// to the first maxRows ingested rows — the snapshot that lets a fit
// scan a log other clients are still appending to — and a log that
// ends before them is damaged: every snapshot row was acknowledged.
func rowLogSource(fs faultfs.FS, path string, attrs []dataset.Attribute, chunkRows int, maxRows int64) *dataset.ChunkSource {
	return &dataset.ChunkSource{
		Attrs:     attrs,
		ChunkRows: chunkRows,
		Open: func() (dataset.Scanner, error) {
			r, err := wal.OpenReader(fs, path)
			if err != nil {
				return nil, err
			}
			rows := &rowLogRows{r: r, path: path, attrs: attrs, maxRows: maxRows}
			return dataset.ScanRows(attrs, chunkRows, rows.read, r), nil
		},
	}
}

// rowLogRows decodes one logged row per read, taking the next type-1
// record off the WAL reader once the current one is spent. Batch
// boundaries never reach the chunk loop, so the row stream is the
// ingest order however appends were batched.
type rowLogRows struct {
	r       *wal.Reader
	path    string
	attrs   []dataset.Attribute
	vals    []byte // the current record's undecoded rows; valid until r.Next
	rows    int64  // rows decoded so far
	maxRows int64  // snapshot bound; <= 0 reads to the end of the log
}

func (s *rowLogRows) read(rec []uint16) error {
	if s.maxRows > 0 && s.rows == s.maxRows {
		return io.EOF
	}
	for len(s.vals) == 0 {
		_, payload, err := s.r.Next()
		if err == io.EOF && s.maxRows > 0 {
			return fmt.Errorf("curator: row log %s ends after %d of the snapshot's %d rows: %w",
				s.path, s.rows, s.maxRows, wal.ErrCorrupt)
		}
		if err != nil {
			return err
		}
		if payload[0] != recRows {
			continue
		}
		h, err := decodeRowsHeader(payload[1:])
		if err != nil {
			return err
		}
		if h.d != len(s.attrs) {
			return fmt.Errorf("curator: rows record has %d columns, schema has %d", h.d, len(s.attrs))
		}
		s.vals = payload[1+h.valsOff:]
	}
	if err := decodeRow(rec, s.vals, s.attrs); err != nil {
		return fmt.Errorf("curator: %s row %d: %w", s.path, s.rows, err)
	}
	s.vals = s.vals[2*len(rec):]
	s.rows++
	return nil
}

// nowUnixNano is a seam for tests that pin time.
var nowUnixNano = func() int64 { return time.Now().UnixNano() }
