package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultCompactAt is the log size, per shard plus one for the session
// layer, past which the next append triggers a compaction: the live state
// is written to a fresh snapshot and the log is reset. A directory with S
// shards compacts its one log at (S+1) × DefaultCompactAt bytes, so the
// worst-case replay is as long as it was when each shard and the session
// layer kept a log of their own.
const DefaultCompactAt = 1 << 20

// formatVersion is the on-disk layout this build reads and writes: one
// write-ahead log (walName) and one snapshot (snapName) per directory.
// Version 1 kept one log and snapshot per shard plus a sessions pair.
const formatVersion = 2

const (
	walName  = "wal.log"
	snapName = "wal.snap"
)

// Record kinds. The log and the snapshot hold all of them; only snapshots
// need recNextSID, but the log carries it for observer-ID burns.
const (
	recPut     = 0x01 // uvarint shard, u16 key, i64 val — one durable root persisted
	recHello   = 0x02 // u64 sid, i64 pid — session opened
	recOutcome = 0x03 // u64 sid, u64 reqID, u32 len, reply — verdict persisted
	recEnd     = 0x04 // u64 sid — session closed
	recNextSID = 0x05 // u64 next — session-ID high-water mark
)

// manifest pins the store geometry a data directory was created with. A
// reopen under different geometry is refused: shard routing (hash mod
// shards) and session process slots are only meaningful under the original
// one.
type manifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
	Procs   int `json:"procs"`
	// Generation is the replication fencing generation (replicate.go):
	// 0 at creation, advanced durably by every promotion. A primary whose
	// generation is behind a replica's has been fenced.
	Generation uint64 `json:"generation,omitempty"`
}

// SessionState is one recovered session: its identity, leased process
// slot, and persisted outcome window.
type SessionState struct {
	SID   uint64
	PID   int
	MaxID uint64
	// Window maps request ID → the encoded reply released for it.
	Window map[uint64][]byte
}

// state is the live image of everything the log and snapshot hold: one
// key→value mirror per shard, the session table and the session-ID
// high-water mark. Recovery rebuilds it by replaying records through
// apply, and live commits fold their records through the same apply, so
// the two cannot drift. Mirror values are boxed so that a put to a known
// key — most of a replayed log — updates in place after a lookup, with no
// key allocation and no map write.
type state struct {
	shards   []map[string]*int64
	sessions map[uint64]*SessionState
	nextSID  uint64
	window   int
}

// DB is one open durable data directory: one write-ahead log and its
// snapshot. It implements the commit protocol of docs/DURABILITY.md:
// mutations are journaled into the log as they linearize, and a commit
// appends its outcome records after them and syncs once, so an outcome on
// disk implies its effects are on disk — byte order in one file, which a
// torn tail can only cut from the end.
type DB struct {
	fs        Fs
	dir       string
	unlock    func() // releases the exclusive lock on the data directory
	log       *Log
	procs     int
	compactAt int64
	gc        groupCommit
	repl      replState     // primary/backup replication hub (replicate.go)
	view      replView      // replica read view, published per barrier (view.go)
	gen       atomic.Uint64 // fencing generation mirrored from the MANIFEST

	// mu guards st and enc, and orders every log append with its
	// replication tap and every barrier sequence with the stream. It is
	// never held across an fsync.
	mu  sync.Mutex
	st  state
	enc []byte // reusable put-record scratch
}

// Open opens the data directory at dir on the real filesystem. See OpenFs.
func Open(dir string, shards, procs, window int) (*DB, error) {
	return OpenFs(OS, dir, shards, procs, window)
}

// OpenFs opens (creating if needed) the data directory at dir for a store
// of the given geometry, recovering all shard state and session windows
// from disk. A torn or corrupted log tail is truncated to the last valid
// prefix. window bounds each recovered session's outcome window (use
// server.Window). Reopening a directory created under a different
// geometry, or written in another format version, is an error. All I/O
// goes through fsys — the OS for real deployments, internal/simio's
// simulated filesystem under the crash-prefix model checker.
func OpenFs(fsys Fs, dir string, shards, procs, window int) (*DB, error) {
	if shards < 1 || procs < 1 {
		return nil, fmt.Errorf("durable: need shards ≥ 1 and procs ≥ 1 (got %d, %d)", shards, procs)
	}
	if window < 1 {
		return nil, fmt.Errorf("durable: need window ≥ 1 (got %d)", window)
	}
	if err := mkdirAllSynced(fsys, dir); err != nil {
		return nil, err
	}
	unlock, err := fsys.Lock(dir)
	if err != nil {
		return nil, err
	}
	gen, err := checkManifest(fsys, dir, shards, procs)
	if err != nil {
		unlock()
		return nil, err
	}

	db := &DB{fs: fsys, dir: dir, unlock: unlock, procs: procs,
		compactAt: int64(shards+1) * DefaultCompactAt}
	db.gen.Store(gen)
	db.st = state{sessions: make(map[uint64]*SessionState), window: window}
	for i := 0; i < shards; i++ {
		db.st.shards = append(db.st.shards, make(map[string]*int64))
	}
	if err := ReplaySnapshotFs(fsys, filepath.Join(dir, snapName), db.st.apply); err != nil {
		unlock()
		return nil, err
	}
	if db.log, err = OpenLogFs(fsys, filepath.Join(dir, walName), db.st.apply); err != nil {
		unlock()
		return nil, err
	}
	return db, nil
}

// checkManifest creates the geometry manifest on first open and verifies
// it on every later one, returning the fencing generation it records. A
// directory in another format version — a version-1 MANIFEST, or version-1
// shard logs without one — is refused: its records would not replay.
func checkManifest(fsys Fs, dir string, shards, procs int) (uint64, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, "MANIFEST"))
	var m manifest
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &m); err != nil {
			return 0, fmt.Errorf("durable: corrupt MANIFEST in %s: %w", dir, err)
		}
		if m.Version == 0 {
			return 0, fmt.Errorf("durable: corrupt MANIFEST in %s: no version", dir)
		}
	case !os.IsNotExist(err):
		return 0, err
	}
	if old, err := fsys.Exists(filepath.Join(dir, "shard-000.log")); err != nil {
		return 0, err
	} else if old {
		m.Version = 1
	}
	switch {
	case m.Version == 0:
		return 0, writeManifest(fsys, dir, shards, procs, 0)
	case m.Version != formatVersion:
		return 0, fmt.Errorf("durable: %s holds data format version %d; this build reads only version %d (no in-place upgrade)",
			dir, m.Version, formatVersion)
	case m.Shards != shards || m.Procs != procs:
		return 0, fmt.Errorf("durable: %s was created with shards=%d procs=%d, refusing to open with shards=%d procs=%d",
			dir, m.Shards, m.Procs, shards, procs)
	}
	return m.Generation, nil
}

// writeManifest atomically (re)writes dir's MANIFEST.
func writeManifest(fsys Fs, dir string, shards, procs int, gen uint64) error {
	data, _ := json.Marshal(manifest{Version: formatVersion, Shards: shards, Procs: procs, Generation: gen})
	return AtomicWriteFileFs(fsys, filepath.Join(dir, "MANIFEST"), append(data, '\n'))
}

// NumShards returns the number of shards.
func (db *DB) NumShards() int { return len(db.st.shards) }

// Procs returns the process-slot count the directory was created for.
func (db *DB) Procs() int { return db.procs }

// SetCompactThreshold overrides the log's compaction threshold in bytes,
// for tests that want compactions after a handful of records.
func (db *DB) SetCompactThreshold(bytes int64) { db.compactAt = bytes }

// ---- records ----

func encodePut(dst []byte, shard int, key string, val int64) []byte {
	dst = append(dst, recPut)
	dst = binary.AppendUvarint(dst, uint64(shard))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(key)))
	dst = append(dst, key...)
	return binary.BigEndian.AppendUint64(dst, uint64(val))
}

// decodePut decodes a put record; key aliases rec.
func decodePut(rec []byte) (shard int, key []byte, val int64, ok bool) {
	if len(rec) < 1 || rec[0] != recPut {
		return 0, nil, 0, false
	}
	s, n := binary.Uvarint(rec[1:])
	if n <= 0 || s > 1<<31 {
		return 0, nil, 0, false
	}
	rec = rec[1+n:]
	if len(rec) < 2 {
		return 0, nil, 0, false
	}
	k := int(binary.BigEndian.Uint16(rec))
	if len(rec) != 2+k+8 {
		return 0, nil, 0, false
	}
	return int(s), rec[2 : 2+k], int64(binary.BigEndian.Uint64(rec[2+k:])), true
}

// setPut sets key to val in mirror m, allocating only for a new key.
func setPut(m map[string]*int64, key []byte, val int64) {
	p, ok := m[string(key)]
	if !ok {
		p = new(int64)
		m[string(key)] = p
	}
	*p = val
}

// appendU64Rec appends a record of one kind byte and u64 fields to dst.
func appendU64Rec(dst []byte, kind byte, fields ...uint64) []byte {
	dst = append(dst, kind)
	for _, v := range fields {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	return dst
}

// appendOutcomeRec appends one encoded recOutcome payload to dst.
func appendOutcomeRec(dst []byte, sid, reqID uint64, reply []byte) []byte {
	dst = appendU64Rec(dst, recOutcome, sid, reqID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(reply)))
	return append(dst, reply...)
}

// apply validates one record and folds it into the state; a malformed
// record changes nothing. Hello records are idempotent (a compaction crash
// can replay a log over a snapshot that already holds the session),
// puts and outcome records are last-wins.
func (s *state) apply(rec []byte) error {
	if len(rec) < 1 {
		return fmt.Errorf("empty record")
	}
	switch rec[0] {
	case recPut:
		shard, key, val, ok := decodePut(rec)
		if !ok {
			return fmt.Errorf("malformed put record")
		}
		if shard >= len(s.shards) {
			return fmt.Errorf("put record for shard %d of %d", shard, len(s.shards))
		}
		setPut(s.shards[shard], key, val)
	case recHello:
		if len(rec) != 1+8+8 {
			return fmt.Errorf("malformed hello record")
		}
		sid := binary.BigEndian.Uint64(rec[1:])
		pid := int(int64(binary.BigEndian.Uint64(rec[9:])))
		if sid > s.nextSID {
			s.nextSID = sid
		}
		if _, ok := s.sessions[sid]; !ok {
			s.sessions[sid] = &SessionState{SID: sid, PID: pid, Window: make(map[uint64][]byte)}
		}
	case recOutcome:
		if len(rec) < 1+8+8+4 || len(rec) != 21+int(binary.BigEndian.Uint32(rec[17:])) {
			return fmt.Errorf("malformed outcome record")
		}
		// An outcome for an absent session (END raced the outcome into the
		// log, or the hello sits past a truncated prefix) is ignorable.
		s.noteOutcome(binary.BigEndian.Uint64(rec[1:]), binary.BigEndian.Uint64(rec[9:]), rec[21:])
	case recEnd:
		if len(rec) != 1+8 {
			return fmt.Errorf("malformed end record")
		}
		delete(s.sessions, binary.BigEndian.Uint64(rec[1:]))
	case recNextSID:
		if len(rec) != 1+8 {
			return fmt.Errorf("malformed next-sid record")
		}
		if next := binary.BigEndian.Uint64(rec[1:]); next > s.nextSID {
			s.nextSID = next
		}
	default:
		return fmt.Errorf("unexpected record kind 0x%02x", rec[0])
	}
	return nil
}

// noteOutcome folds one (sid, reqID, reply) verdict into the state:
// window insert, high-water bump, eviction past the window bound.
func (s *state) noteOutcome(sid, reqID uint64, reply []byte) {
	ss, ok := s.sessions[sid]
	w := uint64(s.window)
	if !ok || reqID+w <= ss.MaxID {
		return // no session, or already past the window bound
	}
	ss.Window[reqID] = append([]byte(nil), reply...)
	if reqID <= ss.MaxID {
		return
	}
	if reqID-ss.MaxID > w {
		for id := range ss.Window {
			if id+w <= reqID {
				delete(ss.Window, id)
			}
		}
	} else {
		// Each step of the high-water mark pushes exactly one ID past the
		// bound, so a short raise evicts without scanning the window.
		for id := ss.MaxID + 1; id <= reqID; id++ {
			if id >= w {
				delete(ss.Window, id-w)
			}
		}
	}
	ss.MaxID = reqID
}

// emit calls fn with the records that rebuild the state from nothing, in
// a canonical order: every shard's puts in sorted key order, then the
// session-ID high-water mark, then each session's hello and outcomes. It
// is the body of both a compaction snapshot and a replication snapshot.
func (s *state) emit(fn func(rec []byte) error) error {
	var enc []byte
	for i, m := range s.shards {
		for _, k := range sortedKeys(m) {
			if err := fn(encodePut(enc[:0], i, k, *m[k])); err != nil {
				return err
			}
		}
	}
	if err := fn(appendU64Rec(enc[:0], recNextSID, s.nextSID)); err != nil {
		return err
	}
	for _, sid := range sortedKeys(s.sessions) {
		ss := s.sessions[sid]
		if err := fn(appendU64Rec(enc[:0], recHello, ss.SID, uint64(int64(ss.PID)))); err != nil {
			return err
		}
		for _, id := range sortedKeys(ss.Window) {
			if err := fn(appendOutcomeRec(enc[:0], ss.SID, id, ss.Window[id])); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortedKeys[K string | uint64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// ---- shards ----

// RangeShard calls fn for every durable root recovered in shard i, in
// sorted key order (deterministic restores make recovery idempotence
// testable).
func (db *DB) RangeShard(i int, fn func(key string, val int64)) {
	db.mu.Lock()
	m := db.st.shards[i]
	keys := sortedKeys(m)
	vals := make([]int64, len(keys))
	for j, k := range keys {
		vals[j] = *m[k]
	}
	db.mu.Unlock()
	for j, k := range keys {
		fn(k, vals[j])
	}
}

// ShardBacking adapts one shard to internal/nvm's Backing seam: Persist
// journals one durable root tagged with the shard, Sync is the log's
// durability barrier. Obtain one from DB.ShardBacking and hand it to
// nvm.Space.SetBacking.
type ShardBacking struct {
	db *DB
	i  int
}

// ShardBacking returns the backing-store view of shard i.
func (db *DB) ShardBacking(i int) ShardBacking { return ShardBacking{db: db, i: i} }

// Persist implements nvm.Backing: it appends one persisted root to the
// log, buffered until the next Sync or commit barrier.
func (b ShardBacking) Persist(key string, val int64) { b.db.journalPut(b.i, key, val) }

// Sync implements nvm.Backing.
func (b ShardBacking) Sync() error { return b.db.log.Sync() }

// journalPut appends one persisted root of shard i to the log and the
// mirror. The caller's key may alias a transient buffer (the server
// decodes keys zero-copy out of the connection frame), so the mirror
// clones it on first insert — the only place this layer retains a key.
//
// A failure here is not returned: it can only be a poisoned log (a failed
// barrier or compaction), which fails every later barrier too, so no
// verdict that depends on this put can ever be released as durable.
func (db *DB) journalPut(i int, key string, val int64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	p, ok := db.st.shards[i][key]
	if !ok {
		p = new(int64)
		db.st.shards[i][strings.Clone(key)] = p
	}
	*p = val
	db.enc = encodePut(db.enc[:0], i, key, val)
	db.appendLocked(db.enc) //nolint:errcheck // see above
}

// appendLocked stages one record that is already folded into the state:
// log append, replication tap, and a compaction once the log crosses the
// threshold. Called with db.mu held.
func (db *DB) appendLocked(rec []byte) error {
	if err := db.log.Append(rec); err != nil {
		return err
	}
	db.repl.tapRec(rec)
	if db.log.Size() >= db.compactAt {
		return db.compactLocked()
	}
	return nil
}

// compactLocked writes the state to a fresh snapshot and resets the log.
// The snapshot rename is itself a barrier for every record appended so
// far; a crash between it and the reset merely replays records the
// snapshot already contains (puts and outcomes are last-wins, hellos
// idempotent). A poisoned log is never compacted — the state may hold
// records whose barrier failed — and a failed snapshot poisons it, so
// nothing later can be released as durable either. Called with db.mu held.
func (db *DB) compactLocked() error {
	if err := db.log.poisoned(); err != nil {
		return err
	}
	err := WriteSnapshotFs(db.fs, filepath.Join(db.dir, snapName), db.st.emit)
	if err != nil {
		return db.log.fail(err)
	}
	return db.log.Reset()
}

// Compact forces a compaction, for tests and tooling.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.compactLocked()
}

// ---- sessions and commits ----

// Sessions returns a deep copy of every recovered live session, sorted by
// session ID.
func (db *DB) Sessions() []SessionState {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]SessionState, 0, len(db.st.sessions))
	for _, sid := range sortedKeys(db.st.sessions) {
		s := db.st.sessions[sid]
		cp := SessionState{SID: s.SID, PID: s.PID, MaxID: s.MaxID, Window: make(map[uint64][]byte, len(s.Window))}
		for id, reply := range s.Window {
			cp.Window[id] = append([]byte(nil), reply...)
		}
		out = append(out, cp)
	}
	return out
}

// NextSID returns the session-ID high-water mark: every ID ever issued is
// ≤ it, so the server resumes numbering above it.
func (db *DB) NextSID() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.st.nextSID
}

// AppendHello durably records a new session (sid, pid) — synced before
// returning, so a client never holds a session ID a restart would forget.
func (db *DB) AppendHello(sid uint64, pid int) error {
	return db.anchor(stageU64Rec(nil, recHello, sid, uint64(int64(pid))))
}

// NoteSID durably raises the session-ID high-water mark to at least sid
// without recording a recoverable session — used for observer sessions,
// which hold no slot and no window but whose IDs must still never be
// reissued after a restart (a stale observer resuming a recycled ID would
// attach to a stranger's session).
func (db *DB) NoteSID(sid uint64) error {
	if sid <= db.NextSID() {
		return nil
	}
	return db.anchor(stageU64Rec(nil, recNextSID, sid))
}

// AppendEnd durably records the end of session sid, releasing it from
// future recoveries.
func (db *DB) AppendEnd(sid uint64) error {
	return db.anchor(stageU64Rec(nil, recEnd, sid))
}

// CommitOutcome makes one released verdict durable: the (sid, reqID,
// reply) outcome record goes into the log after the effects it depends on,
// and one Sync anchors both. Returns only after that barrier — directly
// when group commit is off (a one-record epoch), or on the epoch boundary
// when it is on (the commit coalesces with every other commit in flight
// and they share one fsync; see groupcommit.go).
func (db *DB) CommitOutcome(sid, reqID uint64, reply []byte) error {
	if e := db.gc.join(sid, reqID, reply); e != nil {
		<-e.done
		return e.err
	}
	return db.anchor(stageOutcome(nil, sid, reqID, reply))
}

// stageU64Rec appends one u32-length-prefixed u64-field record to dst:
// the staged form anchor splits its records from.
func stageU64Rec(dst []byte, kind byte, fields ...uint64) []byte {
	at := len(dst)
	return endStage(appendU64Rec(append(dst, 0, 0, 0, 0), kind, fields...), at)
}

// stageOutcome appends one length-prefixed outcome record to dst.
func stageOutcome(dst []byte, sid, reqID uint64, reply []byte) []byte {
	at := len(dst)
	return endStage(appendOutcomeRec(append(dst, 0, 0, 0, 0), sid, reqID, reply), at)
}

// endStage fills in the length prefix of the record staged at dst[at:].
func endStage(dst []byte, at int) []byte {
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// anchor is the one commit path. It folds the staged records (u32-length-
// prefixed, see stageU64Rec) into the state and appends them to the log
// behind every effect journaled so far, then makes them durable with one
// Sync, stages the replication barrier and waits for synchronous replicas
// to acknowledge it. Group-commit epochs, per-mutation commits, session
// records and replica barriers all come through here; a failure fails
// every record of the call.
func (db *DB) anchor(staged []byte) error {
	db.mu.Lock()
	var held []byte
	if MutantOutcomeFirst {
		held = db.log.unstage()
	}
	for off := 0; off < len(staged); {
		n := int(binary.BigEndian.Uint32(staged[off:]))
		rec := staged[off+4 : off+4+n]
		off += 4 + n
		if err := db.st.apply(rec); err != nil {
			db.mu.Unlock()
			return fmt.Errorf("durable: staged record: %w", err)
		}
		if err := db.appendLocked(rec); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	db.mu.Unlock()
	if err := db.log.Sync(); err != nil {
		return err
	}
	if MutantOutcomeFirst {
		db.log.restage(held)
		if err := db.log.Sync(); err != nil {
			return err
		}
	}
	// Barrier sequences are allocated under db.mu, so the stream order of
	// barriers matches sequence order.
	db.mu.Lock()
	seq := db.repl.tapBarrier()
	db.mu.Unlock()
	db.repl.waitBarrier(seq)
	return nil
}

// Sync flushes the log — the shutdown barrier.
func (db *DB) Sync() error { return db.log.Sync() }

// Close stops group commit (draining any in-flight epoch), syncs, and
// closes the log. The DB must not be used afterwards.
func (db *DB) Close() error {
	db.StopGroupCommit()
	err := db.log.Close()
	db.unlock()
	return err
}
