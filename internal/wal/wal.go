// Package wal is an append-only, checksummed, fsync'd write-ahead log.
// It is the durability primitive under the privacy-budget ledger
// (internal/accountant) and under the curator's per-dataset row logs
// (internal/curator): a record handed to Append is on stable storage
// when Append returns, so a crash at any instant — torn final write
// included — loses at most the record that was never acknowledged.
//
// On-disk format:
//
//	[8-byte magic "PBWAL\x00\x01\n"]
//	repeated records: [4-byte LE payload length][4-byte LE CRC32C(payload)][payload]
//
// Payload bytes are opaque to this package; the caller owns their
// encoding. This package is the only reader of the framing: a Reader
// streams the file front to back, verifying every checksum and holding
// one record in memory at a time, and serves both Open's recovery and
// read-only scans (OpenReader). An invalid record that reaches
// end-of-file is a torn tail from a crash mid-append: it ends the log,
// and recovery silently truncates it. An invalid record with
// valid-looking data after it is real corruption and fails with a
// *CorruptError carrying the byte offset (Options.Fsck downgrades that
// to truncation during recovery, for explicit operator-driven repair).
//
// Compact atomically replaces the log with a single checkpoint record
// (temp file + fsync + rename + directory fsync), bounding recovery time
// and file size. All filesystem access goes through internal/faultfs so
// crash sweeps can drive every one of these paths deterministically.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"privbayes/internal/faultfs"
)

// magic identifies (and versions) a WAL file.
const magic = "PBWAL\x00\x01\n"

// headerLen is the per-record header: 4-byte length + 4-byte CRC32C.
const headerLen = 8

// MaxRecordLen caps one record's payload. A length field above the cap
// cannot come from a torn append (appends write the valid length first),
// so it is diagnosed as corruption, not a torn tail.
const MaxRecordLen = 16 << 20

// readAhead is a Reader's buffer. A payload longer than it is read
// straight into the record buffer, so memory stays one record plus this.
const readAhead = 64 << 10

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt tags unrecoverable log damage; match with errors.Is. The
// concrete error is a *CorruptError carrying the byte offset.
var ErrCorrupt = errors.New("wal: log corrupt")

// CorruptError reports damage recovery refused to repair silently.
type CorruptError struct {
	Path   string
	Offset int64  // byte offset of the first invalid record
	Reason string // human-readable diagnosis
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: %s: corrupt at byte %d: %s", e.Path, e.Offset, e.Reason)
}

// Is makes errors.Is(err, ErrCorrupt) match.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// Options configures Open.
type Options struct {
	// FS is the filesystem seam; nil selects the real filesystem.
	FS faultfs.FS
	// Fsck truncates the log at the first corrupt record instead of
	// failing Open — explicit operator-driven repair (-ledger-fsck).
	Fsck bool
}

// Log is an open write-ahead log. Append is not concurrency-safe; the
// owning layer serializes (the accountant already holds its ledger lock
// across every mutation).
type Log struct {
	path    string
	fs      faultfs.FS
	f       faultfs.File
	size    int64 // current file size incl. magic
	records int   // records in the file (replayed + appended)
	// truncated reports bytes dropped during recovery: a torn tail
	// (normal after a crash) or, under Fsck, a corrupt suffix.
	truncated int64
	// m instruments appends and compactions; nil means uninstrumented.
	m *Metrics
}

// Open recovers the log at path, calling replay for every intact record
// in order (offset is the record's position, for diagnostics; payload
// is valid only during the call), then leaves the log open for appends.
// A missing file is created empty. If replay returns an error, Open
// fails with it.
func Open(path string, opts Options, replay func(offset int64, payload []byte) error) (*Log, error) {
	fs := faultfs.Or(opts.FS)
	l := &Log{path: path, fs: fs}

	// One handle serves recovery's reads and then every append: O_APPEND
	// writes land at the end of the file whatever was read.
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		return l, l.create()
	}
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	r := newReader(f, path)
	torn, err := r.readMagic()
	if err != nil {
		f.Close()
		return nil, err
	}
	if torn {
		// A crash tore the very first write; nothing was committed.
		f.Close()
		return l, l.recreate()
	}
	for {
		off, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if _, ok := err.(*CorruptError); ok && opts.Fsck {
			break // operator-sanctioned repair: drop everything from the damage on
		}
		if err == nil {
			err = replay(off, payload)
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		l.records++
	}
	// r.off ends the valid prefix: past the last intact record, at the
	// torn tail or at the damage.
	l.size = r.off
	fi, err := fs.Stat(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	if fi.Size() > l.size {
		l.truncated = fi.Size() - l.size
		if err := fs.Truncate(path, l.size); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
		// Make the repair itself durable before acknowledging recovery.
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: sync repaired %s: %w", path, err)
		}
	}
	l.f = f
	return l, nil
}

// Reader streams a log's records front to back, holding one record in
// memory at a time: the payload Next returns is valid until the next
// call. Open recovers through a Reader; OpenReader gives read-only
// scans the same framing rules.
type Reader struct {
	path string
	f    faultfs.File
	br   *bufio.Reader
	off  int64  // offset of the next record: the end of the valid prefix
	buf  []byte // payload buffer, reused across records
	err  error  // sticky: io.EOF at the end of the log, or the first failure
}

func newReader(f faultfs.File, path string) *Reader {
	return &Reader{path: path, f: f, br: bufio.NewReaderSize(f, readAhead)}
}

// OpenReader opens the log at path through fs (nil selects the real
// filesystem) for a read-only scan. A file that is a strict prefix of
// the magic holds no records.
func OpenReader(fs faultfs.FS, path string) (*Reader, error) {
	f, err := faultfs.Or(fs).OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	r := newReader(f, path)
	if _, err := r.readMagic(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// readMagic consumes the file header. torn reports a file that is a
// strict prefix of the magic: a crash tore the log's very first write.
func (r *Reader) readMagic() (torn bool, err error) {
	var hdr [len(magic)]byte
	n, err := io.ReadFull(r.br, hdr[:])
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		if string(hdr[:n]) != magic[:n] {
			return false, &CorruptError{Path: r.path, Offset: 0, Reason: "file shorter than the WAL magic and not a prefix of it"}
		}
		r.err = io.EOF
		return true, nil
	case err != nil:
		return false, fmt.Errorf("wal: read %s: %w", r.path, err)
	case string(hdr[:]) != magic:
		return false, &CorruptError{Path: r.path, Offset: 0, Reason: "bad magic (not a WAL file)"}
	}
	r.off = int64(len(magic))
	return false, nil
}

// Next returns the next intact record, never empty, and its offset. It
// returns io.EOF at the end of the log, which a torn tail also marks: a
// record cut short by the end of the file, or a final record whose
// checksum fails, was never acknowledged. Damage with data after it is
// a *CorruptError at the damaged record's offset. Errors are sticky.
func (r *Reader) Next() (offset int64, payload []byte, err error) {
	if r.err != nil {
		return 0, nil, r.err
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return r.fail(err) // the end of the log, or a torn header
	}
	length := binary.LittleEndian.Uint32(hdr[:])
	if length == 0 || length > MaxRecordLen {
		return r.fail(&CorruptError{Path: r.path, Offset: r.off, Reason: fmt.Sprintf("implausible record length %d", length)})
	}
	if cap(r.buf) < int(length) {
		r.buf = make([]byte, length)
	}
	payload = r.buf[:length]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return r.fail(err) // a torn payload
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:]) {
		if _, err := r.br.Peek(1); err != nil {
			return r.fail(err) // io.EOF: the torn final record
		}
		return r.fail(&CorruptError{Path: r.path, Offset: r.off, Reason: "checksum mismatch with further data after the record"})
	}
	offset = r.off
	r.off += headerLen + int64(length)
	return offset, payload, nil
}

// fail makes err sticky. A short read is the end of the log.
func (r *Reader) fail(err error) (int64, []byte, error) {
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		err = io.EOF
	case !errors.Is(err, ErrCorrupt):
		err = fmt.Errorf("wal: read %s: %w", r.path, err)
	}
	r.err = err
	return 0, nil, err
}

// Close releases the file.
func (r *Reader) Close() error { return r.f.Close() }

// create initializes a brand-new log file durably: magic, file fsync,
// then directory fsync so the name itself survives.
func (l *Log) create() error {
	f, err := l.fs.OpenFile(l.path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", l.path, err)
	}
	if err := writeAndSyncAll(f, []byte(magic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: init %s: %w", l.path, err)
	}
	if err := l.fs.SyncDir(filepath.Dir(l.path)); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync dir of %s: %w", l.path, err)
	}
	l.f = f
	l.size = int64(len(magic))
	return nil
}

// recreate replaces a file holding a torn initial write.
func (l *Log) recreate() error {
	if err := l.fs.Remove(l.path); err != nil {
		return fmt.Errorf("wal: remove torn %s: %w", l.path, err)
	}
	return l.create()
}

func writeAndSyncAll(f faultfs.File, b []byte) error {
	if _, err := f.Write(b); err != nil {
		return err
	}
	return f.Sync()
}

// Append commits one record: a single write of header+payload followed
// by fsync. When Append returns nil the record survives any crash; when
// it returns an error the record must be treated as not committed (it
// may or may not survive — recovery decides).
func (l *Log) Append(payload []byte) error {
	if l.f == nil {
		return errors.New("wal: log is closed")
	}
	if len(payload) == 0 {
		return errors.New("wal: empty payload")
	}
	if len(payload) > MaxRecordLen {
		return fmt.Errorf("wal: payload %d bytes exceeds cap %d", len(payload), MaxRecordLen)
	}
	buf := make([]byte, headerLen+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))
	copy(buf[headerLen:], payload)
	var start time.Time
	if l.m != nil {
		start = time.Now()
	}
	if err := writeAndSyncAll(l.f, buf); err != nil {
		return fmt.Errorf("wal: append to %s: %w", l.path, err)
	}
	l.size += int64(len(buf))
	l.records++
	if l.m != nil {
		l.m.fsyncSeconds.Observe(time.Since(start).Seconds())
		l.m.appends.Inc()
		l.m.appendBytes.Add(float64(len(buf)))
		l.m.sizeBytes.Set(float64(l.size))
	}
	return nil
}

// Compact atomically replaces the whole log with a single checkpoint
// record: temp file in the same directory, file fsync, rename over the
// log, directory fsync. On any error the old log remains the durable
// truth and stays open for appends.
func (l *Log) Compact(checkpoint []byte) error {
	if l.f == nil {
		return errors.New("wal: log is closed")
	}
	if len(checkpoint) == 0 || len(checkpoint) > MaxRecordLen {
		return fmt.Errorf("wal: invalid checkpoint size %d", len(checkpoint))
	}
	var start time.Time
	if l.m != nil {
		start = time.Now()
	}
	dir := filepath.Dir(l.path)
	tmp, err := l.fs.CreateTemp(dir, ".wal-compact-*")
	if err != nil {
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	cleanup := func() { tmp.Close(); l.fs.Remove(tmp.Name()) }
	buf := make([]byte, len(magic)+headerLen+len(checkpoint))
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[len(magic):], uint32(len(checkpoint)))
	binary.LittleEndian.PutUint32(buf[len(magic)+4:], crc32.Checksum(checkpoint, castagnoli))
	copy(buf[len(magic)+headerLen:], checkpoint)
	if err := writeAndSyncAll(tmp, buf); err != nil {
		cleanup()
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	if err := tmp.Close(); err != nil {
		l.fs.Remove(tmp.Name())
		return fmt.Errorf("wal: compact %s: close: %w", l.path, err)
	}
	if err := l.fs.Rename(tmp.Name(), l.path); err != nil {
		l.fs.Remove(tmp.Name())
		return fmt.Errorf("wal: compact %s: rename: %w", l.path, err)
	}
	if err := l.fs.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: compact %s: sync dir: %w", l.path, err)
	}
	// The old append handle now points at the unlinked pre-compaction
	// inode; swap it for the fresh file.
	old := l.f
	f, err := l.fs.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.f = nil
		old.Close()
		return fmt.Errorf("wal: reopen %s after compaction: %w", l.path, err)
	}
	old.Close()
	l.f = f
	l.size = int64(len(buf))
	l.records = 1
	if l.m != nil {
		l.m.compactSeconds.Observe(time.Since(start).Seconds())
		l.m.compactions.Inc()
		l.m.sizeBytes.Set(float64(l.size))
	}
	return nil
}

// Records returns the number of records currently in the log.
func (l *Log) Records() int { return l.records }

// Size returns the log's size in bytes, including the magic header.
func (l *Log) Size() int64 { return l.size }

// Truncated returns the bytes dropped during recovery (torn tail, or
// corrupt suffix under Fsck); 0 after a clean open.
func (l *Log) Truncated() int64 { return l.truncated }

// Path returns the log file's path.
func (l *Log) Path() string { return l.path }

// Close releases the append handle. The log's contents are already
// durable; Close exists for tests and orderly shutdown.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
