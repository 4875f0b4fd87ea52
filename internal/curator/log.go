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
//	  network, so after a restart the next refit is incremental.
//
// The WAL's fsync-then-acknowledge contract gives the curator its
// crash semantics for free: an acknowledged batch is on stable storage
// before the HTTP 200 leaves the process, and a batch torn by a crash
// was never acknowledged and vanishes at recovery. This file owns only
// the payload encodings: the framing is read by internal/wal alone.
// The log is read once, at recovery, which decodes every rows record
// into the dataset's resident rows when refits are enabled; refits
// never read it.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"privbayes/internal/core"
	"privbayes/internal/dataset"
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

// decodeRows decodes a type-1 record's payload (after the type tag)
// against the schema: the header, and when dst is not nil every row,
// each code checked against its attribute's domain and appended to dst
// 4 096 rows at a time. It is the decoder recovery runs over every
// logged batch.
func decodeRows(payload []byte, attrs []dataset.Attribute, dst *dataset.Dataset) (rowsHeader, error) {
	h, err := decodeRowsHeader(payload)
	if err != nil {
		return h, err
	}
	if h.d != len(attrs) {
		return h, fmt.Errorf("curator: rows record has %d columns, schema has %d", h.d, len(attrs))
	}
	if dst == nil {
		return h, nil
	}
	const block = 4096
	vals := payload[h.valsOff:]
	stage := make([][]uint16, h.d)
	for c := range stage {
		stage[c] = make([]uint16, min(h.n, block))
	}
	for lo := 0; lo < h.n; lo += block {
		rows := min(block, h.n-lo)
		for r := 0; r < rows; r++ {
			for c, col := range stage {
				v := binary.LittleEndian.Uint16(vals[2*((lo+r)*h.d+c):])
				if int(v) >= attrs[c].Size() {
					return h, fmt.Errorf("curator: rows record row %d, column %d: code %d out of domain [0, %d)",
						lo+r, c, v, attrs[c].Size())
				}
				col[r] = v
			}
		}
		for c := range stage {
			stage[c] = stage[c][:rows]
		}
		dst.AppendColumns(stage)
	}
	return h, nil
}

// nowUnixNano is a seam for tests that pin time.
var nowUnixNano = func() int64 { return time.Now().UnixNano() }
