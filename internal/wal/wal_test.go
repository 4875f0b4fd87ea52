package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"privbayes/internal/faultfs"
)

// openCollect opens the log and returns the replayed payloads.
func openCollect(t *testing.T, path string, opts Options) (*Log, [][]byte) {
	t.Helper()
	var got [][]byte
	l, err := Open(path, opts, func(_ int64, p []byte) error {
		got = append(got, bytes.Clone(p))
		return nil
	})
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return l, got
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%03d|%s", i, string(bytes.Repeat([]byte{'x'}, i%7))))
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, got := openCollect(t, path, Options{})
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %d records", len(got))
	}
	want := payloads(25)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if l.Records() != 25 {
		t.Fatalf("Records = %d", l.Records())
	}
	l.Close()

	l2, got := openCollect(t, path, Options{})
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	// Recovered log accepts further appends.
	if err := l2.Append([]byte("after-recovery")); err != nil {
		t.Fatal(err)
	}
}

// TestEveryPrefixRecoversCommittedRecords is the crash-consistency
// property test: for EVERY byte-level truncation of the log — modeling a
// crash that persisted an arbitrary prefix of the final append —
// recovery must yield exactly the records whose append completed within
// the surviving bytes, and never error (a torn tail is normal, not
// corruption).
func TestEveryPrefixRecoversCommittedRecords(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "wal")
	l, _ := openCollect(t, full, Options{})
	want := payloads(12)
	// ends[i] = file size after record i committed.
	var ends []int64
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, l.Size())
	}
	l.Close()
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	for cut := len(magic); cut <= len(data); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%04d", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		committed := 0
		for _, e := range ends {
			if e <= int64(cut) {
				committed++
			}
		}
		l, got := openCollect(t, path, Options{})
		if len(got) != committed {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), committed)
		}
		for i := 0; i < committed; i++ {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut %d: record %d = %q, want %q", cut, i, got[i], want[i])
			}
		}
		// The torn tail (if any) was truncated away durably.
		if wantTrunc := int64(cut) - func() int64 {
			if committed == 0 {
				return int64(len(magic))
			}
			return ends[committed-1]
		}(); l.Truncated() != wantTrunc {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, l.Truncated(), wantTrunc)
		}
		// And the repaired log keeps working.
		if err := l.Append([]byte("post-repair")); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		l.Close()
		os.Remove(path)
	}
}

// TestTornMagicPrefix covers a crash during the very first write of a
// brand-new log: a strict prefix of the magic recovers to an empty log.
func TestTornMagicPrefix(t *testing.T) {
	for cut := 0; cut < len(magic); cut++ {
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, []byte(magic[:cut]), 0o644); err != nil {
			t.Fatal(err)
		}
		l, got := openCollect(t, path, Options{})
		if len(got) != 0 {
			t.Fatalf("cut %d: replayed %d records from torn magic", cut, len(got))
		}
		if err := l.Append([]byte("ok")); err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
}

func TestMidFileCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := openCollect(t, path, Options{})
	want := payloads(8)
	var ends []int64
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, l.Size())
	}
	l.Close()

	// Flip one payload byte of record 3 — mid-file, so recovery must
	// refuse, naming record 3's offset.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recStart := ends[2]
	data[recStart+headerLen+2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(path, Options{}, func(int64, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T is not *CorruptError", err)
	}
	if ce.Offset != recStart {
		t.Errorf("corrupt offset = %d, want %d", ce.Offset, recStart)
	}
	if ce.Path != path {
		t.Errorf("corrupt path = %q, want %q", ce.Path, path)
	}

	// Fsck repairs by truncating at the damage: records 0-2 survive.
	l2, got := openCollect(t, path, Options{Fsck: true})
	defer l2.Close()
	if len(got) != 3 {
		t.Fatalf("fsck recovered %d records, want 3", len(got))
	}
	if l2.Truncated() == 0 {
		t.Error("fsck reported no truncation")
	}
}

func TestNotAWALFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	if err := os.WriteFile(path, []byte(`{"version":1,"datasets":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path, Options{}, func(int64, []byte) error { return nil })
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Offset != 0 {
		t.Fatalf("err = %v, want *CorruptError at offset 0", err)
	}
}

func TestCompactReplacesLogAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := openCollect(t, path, Options{})
	for _, p := range payloads(10) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	big := l.Size()
	if err := l.Compact([]byte("checkpoint-state")); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 1 || l.Size() >= big {
		t.Fatalf("after compact: records=%d size=%d (was %d)", l.Records(), l.Size(), big)
	}
	// Appends continue on the compacted file.
	if err := l.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, got := openCollect(t, path, Options{})
	if len(got) != 2 || string(got[0]) != "checkpoint-state" || string(got[1]) != "tail" {
		t.Fatalf("replay after compact = %q", got)
	}
	// No stray temp files.
	stray, _ := filepath.Glob(filepath.Join(filepath.Dir(path), ".wal-compact-*"))
	if len(stray) != 0 {
		t.Errorf("leftover compaction temps: %v", stray)
	}
}

// TestCrashSweepWAL drives append+compact workloads through faultfs,
// crashing at every mutating filesystem op (with and without torn
// writes), then asserts recovery never errors and yields a prefix of
// the intended records — optionally including the in-flight one, never
// a reordering or a gap.
func TestCrashSweepWAL(t *testing.T) {
	want := payloads(6)
	// workload appends 6 records with a compaction after the 4th.
	workload := func(fs faultfs.FS, path string) (committed int, _ error) {
		l, err := Open(path, Options{FS: fs}, func(int64, []byte) error { return nil })
		if err != nil {
			return 0, err
		}
		defer l.Close() // double-Close is a no-op; this covers error paths
		for i, p := range want {
			if err := l.Append(p); err != nil {
				return committed, err
			}
			committed = i + 1
			if i == 3 {
				if err := l.Compact(bytes.Join(want[:4], nil)); err != nil {
					return committed, err
				}
			}
		}
		return committed, l.Close()
	}

	// Size the sweep.
	probeDir := t.TempDir()
	probe := faultfs.NewFault(nil)
	if _, err := workload(probe, filepath.Join(probeDir, "wal")); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	if total < 20 {
		t.Fatalf("workload has only %d crash points, want >= 20 for a meaningful sweep", total)
	}

	for _, torn := range []bool{false, true} {
		for n := int64(1); n <= total; n++ {
			dir := t.TempDir()
			path := filepath.Join(dir, "wal")
			fault := faultfs.NewFault(nil)
			fault.CrashAt(n, torn)
			committed, err := workload(fault, path)
			if err == nil {
				t.Fatalf("crash at op %d did not surface", n)
			}

			// Recover with the real filesystem (the "next process").
			var got [][]byte
			l, err := Open(path, Options{}, func(_ int64, p []byte) error {
				got = append(got, bytes.Clone(p))
				return nil
			})
			if err != nil {
				t.Fatalf("torn=%v crash at op %d: recovery failed: %v", torn, n, err)
			}
			l.Close()
			// Flatten: a checkpoint record holds the concatenation of the
			// first 4 payloads; expand it for comparison.
			var flat [][]byte
			for _, p := range got {
				if bytes.Equal(p, bytes.Join(want[:4], nil)) {
					flat = append(flat, want[:4]...)
					continue
				}
				flat = append(flat, p)
			}
			// Invariant: recovered = exactly the committed prefix, or the
			// committed prefix plus the one in-flight record.
			if len(flat) != committed && len(flat) != committed+1 {
				t.Fatalf("torn=%v crash at op %d: recovered %d records, committed %d", torn, n, len(flat), committed)
			}
			for i, p := range flat {
				if !bytes.Equal(p, want[i]) {
					t.Fatalf("torn=%v crash at op %d: record %d = %q, want %q", torn, n, i, p, want[i])
				}
			}
		}
	}
}

func TestAppendValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := openCollect(t, path, Options{})
	defer l.Close()
	if err := l.Append(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if err := l.Append(make([]byte, MaxRecordLen+1)); err == nil {
		t.Error("oversized payload accepted")
	}
}

// FuzzWALOpen feeds arbitrary bytes after the magic to recovery, the
// parser every daemon start runs over disk-resident (and therefore
// untrusted) ledger and row logs. Neither Open nor a read-only Reader
// may panic, and they must agree: the records Open replays are the
// ones the Reader yields, and where Open refuses the log the Reader
// reports the same damage. A successful Open leaves a log that reopens
// to the same records with nothing left to truncate, and an Fsck open
// always succeeds.
func FuzzWALOpen(f *testing.F) {
	var valid []byte
	for _, p := range payloads(3) {
		valid = append(valid, frame(p)...)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-3])                                   // torn payload
	f.Add(append(bytes.Clone(valid), 1, 2))                       // torn header
	f.Add(append(frame([]byte("x")), make([]byte, headerLen)...)) // zero length
	flipped := bytes.Clone(valid)
	flipped[headerLen+1] ^= 0xFF // checksum mismatch before further records
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, append([]byte(magic), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		var scanned [][]byte
		r, err := OpenReader(nil, path)
		if err != nil {
			t.Fatalf("OpenReader: %v", err)
		}
		var scanErr error
		for {
			_, p, err := r.Next()
			if err != nil {
				if err != io.EOF {
					scanErr = err
				}
				break
			}
			scanned = append(scanned, bytes.Clone(p))
		}
		r.Close()

		var first [][]byte
		l, err := Open(path, Options{}, func(_ int64, p []byte) error {
			first = append(first, bytes.Clone(p))
			return nil
		})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || scanErr == nil || err.Error() != scanErr.Error() {
				t.Fatalf("Open: %v; Reader: %v; want the same ErrCorrupt from both", err, scanErr)
			}
		} else {
			l.Close()
			if scanErr != nil || !slices.EqualFunc(first, scanned, bytes.Equal) {
				t.Fatalf("Open replayed %d records, Reader yielded %d (err %v)", len(first), len(scanned), scanErr)
			}
			l2, second := openCollect(t, path, Options{})
			l2.Close()
			if l2.Truncated() != 0 || !slices.EqualFunc(first, second, bytes.Equal) {
				t.Fatalf("reopen truncated %d bytes and replayed %d of %d records", l2.Truncated(), len(second), len(first))
			}
		}
		l3, _ := openCollect(t, path, Options{Fsck: true})
		l3.Close()
	})
}

// frame encodes one record as Append writes it.
func frame(p []byte) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(p, castagnoli))
	return append(buf, p...)
}
