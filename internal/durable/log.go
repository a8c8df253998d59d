// Package durable is the file-backed persistence substrate behind the
// simulated NVM spaces: an on-disk data directory holding one append-only
// CRC-framed write-ahead log (plus a periodically compacted snapshot) for
// every shard and the session layer together, so that the paper's persist
// ordering maps onto byte order in one file and the whole process — not
// just a simulated epoch — can be killed and restarted without losing a
// single detectable verdict.
//
// The layering is deliberate: internal/nvm defines the pluggable Backing
// seam a Space forwards its logical persists through, this package supplies
// the file-backed implementation, internal/shardkv journals every
// linearized mutation through it, and internal/server makes each session's
// request-ID→outcome window durable so a client that reconnects after a
// whole-process crash still receives the original verdict. docs/DURABILITY.md
// is the normative description of the format and the recovery procedure.
//
// All I/O goes through the Fs seam (fs.go): the OS implementation by
// default, internal/simio's simulated filesystem under the crash-prefix
// model checker, which recovers from every crash point × torn-write variant
// of a workload and pins recovery as a pure function of the byte image via
// StateHash.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Record framing: every record in a log or snapshot file is
//
//	u32(len(payload)) u32(crc32c(payload)) payload
//
// with big-endian integers. A record whose length field runs past the end
// of the file (a torn append) or whose CRC does not match (a corrupted
// tail) ends the valid prefix: recovery keeps everything before it and
// truncates the rest, exactly once, on open.
const (
	// FrameHeader is the framed-record header size: u32 length + u32 CRC.
	FrameHeader = 8
	frameHeader = FrameHeader
	// MaxRecord bounds one record's payload; a larger length field cannot
	// come from a writer of this package and is treated as corruption.
	MaxRecord = 1 << 24
)

// castagnoli is the CRC-32C table used for record checksums (the
// polynomial NVM-adjacent storage systems conventionally use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is one append-only CRC-framed record file. Appends are staged in
// memory — they do not reach the kernel until the next Sync — so a batch
// of records costs one write plus one fsync, and a record can never become
// durable (or even reach the page cache) before the barrier that is
// supposed to order it. All methods are safe for concurrent use.
//
// Two mutexes split the work: mu guards the staged buffer and the poison,
// and is all Append takes; syncMu serializes the file itself (write,
// fsync, truncate). Sync swaps the staged buffer out under mu and then
// writes and fsyncs under syncMu alone, so an Append never waits out an
// fsync. An Append that returned before Sync was called is durable when
// that Sync returns; one that lands during the fsync waits for the next.
//
// A failed barrier poisons the log: after a write or fsync error every
// subsequent Append and Sync fails with the original error. Retrying an
// fsync that already failed is not safe — the kernel may have dropped the
// dirty pages while reporting the error, so a later "successful" fsync
// would claim durability for data that never reached the disk.
type Log struct {
	syncMu sync.Mutex // held across write+fsync and truncate; taken before mu
	dirty  bool       // written to the file since the last fsync; guarded by syncMu
	spare  []byte     // the buffer the last Sync wrote, reused; guarded by syncMu

	mu   sync.Mutex
	f    File
	path string
	size int64  // bytes handed to the file (written or being written)
	buf  []byte // framed records staged since the last Sync
	err  error  // sticky poison from a failed write, fsync or compaction
	// syncFn is the fsync implementation, replaceable by fault-injection
	// tests; nil means File.Sync.
	syncFn func(File) error
}

// OpenLog opens the record log at path on the real filesystem. See
// OpenLogFs.
func OpenLog(path string, fn func(rec []byte) error) (*Log, error) {
	return OpenLogFs(OS, path, fn)
}

// OpenLogFs opens (creating if needed) the record log at path, replays
// every valid record through fn in append order, truncates the file to the
// last valid prefix (discarding a torn or corrupted tail), and returns the
// log positioned for appending. A replay error aborts the open.
//
// A freshly created log gets its parent directory fsynced before use: a
// log whose directory entry is still unsynced can vanish wholesale in a
// crash — taking fsynced records with it — which is strictly worse than a
// torn tail because recovery cannot even see that data was lost.
func OpenLogFs(fsys Fs, path string, fn func(rec []byte) error) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	created := false
	if err != nil && os.IsNotExist(err) {
		f, err = fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		created = err == nil
	}
	if err != nil {
		return nil, err
	}
	if created {
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	}
	l := &Log{f: f, path: path}
	valid, err := scanRecords(f, fn)
	if err != nil {
		f.Close()
		return nil, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	if size > valid {
		// Torn or corrupted tail: keep the last valid prefix, drop the rest.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	l.size = valid
	return l, nil
}

// scanRecords reads framed records from the start of f, calling fn for
// each valid one, and returns the byte offset of the end of the valid
// prefix. Corruption (bad CRC, impossible length, short tail) is not an
// error: it just ends the prefix.
func scanRecords(f File, fn func(rec []byte) error) (int64, error) {
	data, err := readAll(f)
	if err != nil {
		return 0, err
	}
	var off int64
	for {
		rec, n := nextRecord(data[off:])
		if n == 0 {
			return off, nil
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return 0, fmt.Errorf("durable: replay %s at offset %d: %w", f.Name(), off, err)
			}
		}
		off += n
	}
}

// nextRecord decodes the first framed record in b, returning the payload
// and the total framed size, or (nil, 0) when b starts with a torn,
// corrupted or absent record.
func nextRecord(b []byte) ([]byte, int64) {
	if len(b) < frameHeader {
		return nil, 0
	}
	n := binary.BigEndian.Uint32(b)
	if n > MaxRecord || int64(len(b)) < frameHeader+int64(n) {
		return nil, 0
	}
	want := binary.BigEndian.Uint32(b[4:])
	payload := b[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, 0
	}
	return payload, frameHeader + int64(n)
}

// readAll reads f from the start without moving its append position.
func readAll(f File) ([]byte, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return data, nil
}

// Append frames payload and stages it at the end of the log. The record
// stays in memory until the next Sync; callers must not release an effect
// that depends on it before that barrier.
func (l *Log) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("durable: record of %d bytes exceeds MaxRecord", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.buf = appendFrame(l.buf, payload)
	return nil
}

// appendFrame appends one framed record to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// Sync is the durability barrier: every Append that returned before Sync
// was called is physically durable when it returns. Staged records are
// flushed in one coalesced write, then fsynced; Appends made meanwhile
// stage for the next barrier. A clean log (no appends since the last
// barrier) syncs nothing. A failed barrier poisons the log permanently —
// see the Log doc comment.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return l.err
	}
	buf, off := l.buf, l.size
	l.buf, l.spare = l.spare[:0], buf
	l.size += int64(len(buf))
	l.mu.Unlock()
	if len(buf) > 0 {
		if _, err := l.f.WriteAt(buf, off); err != nil {
			// The file offset the staged records were meant for may now hold
			// a partial write; nothing after this point can be trusted durable.
			return l.fail(err)
		}
		l.dirty = true
	}
	if !l.dirty {
		return nil
	}
	if err := l.fsync(); err != nil {
		// fsyncgate semantics: the kernel may drop dirty pages on a failed
		// fsync, so retrying could report durability for data that is gone.
		// Poison instead of retrying.
		return l.fail(err)
	}
	l.dirty = false
	return nil
}

// fail poisons the log with its first failure and returns the poison;
// every later Append, Sync and Reset returns it too.
func (l *Log) fail(cause error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = fmt.Errorf("durable: log %s poisoned by failed barrier: %w", filepath.Base(l.path), cause)
	}
	return l.err
}

// poisoned returns the poison, or nil for a healthy log.
func (l *Log) poisoned() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// fsync calls the possibly-injected sync implementation.
func (l *Log) fsync() error {
	if l.syncFn != nil {
		return l.syncFn(l.f)
	}
	return l.f.Sync()
}

// Size returns the log's valid byte length, counting staged records.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size + int64(len(l.buf))
}

// Reset truncates the log to empty, discarding staged records — the
// tail-discard half of a compaction, called only after the compacted
// snapshot is durably in place (a crash between the snapshot rename and
// this truncate merely replays records the snapshot already contains).
func (l *Log) Reset() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if err := l.poisoned(); err != nil {
		return err
	}
	if err := l.f.Truncate(0); err != nil {
		return l.fail(err)
	}
	l.mu.Lock()
	l.size = 0
	l.buf = l.buf[:0]
	l.mu.Unlock()
	l.dirty = false
	if err := l.fsync(); err != nil {
		return l.fail(err)
	}
	return nil
}

// Close syncs and closes the file. A poisoned log still closes its file
// but reports the poison error.
func (l *Log) Close() error {
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteSnapshot atomically replaces the snapshot at path on the real
// filesystem. See WriteSnapshotFs.
func WriteSnapshot(path string, emit func(append func(rec []byte) error) error) error {
	return WriteSnapshotFs(OS, path, emit)
}

// WriteSnapshotFs atomically replaces the snapshot at path with the framed
// records produced by emit: records go to a temporary file, which is
// synced, renamed over path, and the parent directory synced — so a crash
// anywhere leaves either the old snapshot or the new one, never a mix.
func WriteSnapshotFs(fsys Fs, path string, emit func(append func(rec []byte) error) error) error {
	return atomicReplace(fsys, path, func(f File) error {
		var enc []byte
		return emit(func(rec []byte) error {
			enc = appendFrame(enc[:0], rec)
			_, err := f.Write(enc)
			return err
		})
	})
}

// AtomicWriteFile atomically replaces path with data, fsyncing contents
// before the rename and the directory after it (the MANIFEST writer).
func AtomicWriteFile(path string, data []byte) error {
	return AtomicWriteFileFs(OS, path, data)
}

// AtomicWriteFileFs is AtomicWriteFile through an explicit Fs.
func AtomicWriteFileFs(fsys Fs, path string, data []byte) error {
	return atomicReplace(fsys, path, func(f File) error {
		_, err := f.Write(data)
		return err
	})
}

// atomicReplace is the shared crash-atomic replacement sequence: write a
// temporary file via fill, fsync it, rename it over path, fsync the
// parent directory. Contents are durable before the rename can be, so a
// crash leaves either the complete old file or the complete new one.
func atomicReplace(fsys Fs, path string, fill func(f File) error) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	werr := fill(f)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fsys.Remove(tmp)
		return werr
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// ReplaySnapshot streams the snapshot at path on the real filesystem. See
// ReplaySnapshotFs.
func ReplaySnapshot(path string, fn func(rec []byte) error) error {
	return ReplaySnapshotFs(OS, path, fn)
}

// ReplaySnapshotFs streams the valid record prefix of the snapshot at path
// through fn. A missing snapshot is not an error (no compaction has
// happened yet); a truncated or corrupted one yields its valid prefix,
// mirroring log recovery.
func ReplaySnapshotFs(fsys Fs, path string, fn func(rec []byte) error) error {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = scanRecords(f, fn)
	return err
}
