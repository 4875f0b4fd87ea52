package curator

import (
	"bytes"
	"testing"

	"privbayes/internal/dataset"
)

// FuzzAppendRows throws arbitrary bytes at the row-record codec —
// decodeRows, which recovery runs over every disk-resident (and
// therefore untrusted) logged batch to fill a dataset's resident rows.
// Whatever the bytes, decoding must never panic, and anything that
// decodes must round-trip: re-encoding the decoded batch under the
// decoded key yields a payload that decodes to the identical rows.
func FuzzAppendRows(f *testing.F) {
	attrs := []dataset.Attribute{
		dataset.NewCategorical("a", []string{"0", "1"}),
		dataset.NewCategorical("b", []string{"x", "y", "z"}),
		dataset.NewContinuous("c", 0, 10, 4),
	}
	seed := dataset.NewWithCapacity(attrs, 4)
	for i := 0; i < 4; i++ {
		seed.Append([]uint16{uint16(i % 2), uint16(i % 3), uint16(i % 4)})
	}
	if enc, err := encodeRows("batch-1", seed); err == nil {
		f.Add(enc[1:]) // payload after the record-type tag
	}
	if enc, err := encodeRows("", seed.Slice(0, 1)); err == nil {
		f.Add(enc[1:])
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 1, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		got := dataset.New(attrs)
		h, err := decodeRows(payload, attrs, got)
		if err != nil {
			return
		}
		if got.N() != h.n {
			t.Fatalf("decoded %d rows, header says %d", got.N(), h.n)
		}
		enc, err := encodeRows(h.key, got)
		if err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		h2, err := decodeRowsHeader(enc[1:])
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if h2.key != h.key || h2.n != h.n || h2.d != h.d {
			t.Fatalf("round-trip header mismatch: %+v vs %+v", h2, h)
		}
		if !bytes.Equal(enc[1:][h2.valsOff:], payload[h.valsOff:]) {
			t.Fatal("round-trip value block mismatch")
		}
	})
}
