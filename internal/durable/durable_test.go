package durable

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// collect reopens the log at path and returns every valid record.
func collect(t *testing.T, path string) [][]byte {
	t.Helper()
	var recs [][]byte
	l, err := OpenLog(path, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	l.Close()
	return recs
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("alpha"), {}, []byte("gamma-longer-record")}
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got := collect(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestLogTornFinalRecord cuts the last record mid-payload: recovery must
// keep the valid prefix, truncate the torn tail, and leave the log
// appendable.
func TestLogTornFinalRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _ := OpenLog(path, nil)
	l.Append([]byte("first"))
	l.Append([]byte("second-record"))
	l.Sync()
	l.Close()

	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	got := collect(t, path)
	if len(got) != 1 || string(got[0]) != "first" {
		t.Fatalf("after torn tail: records %q, want just %q", got, "first")
	}
	st, _ := os.Stat(path)
	if want := int64(frameHeader + len("first")); st.Size() != want {
		t.Fatalf("file not truncated to valid prefix: size %d, want %d", st.Size(), want)
	}

	// The truncated log must accept appends and replay the combined prefix.
	l2, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2.Append([]byte("third"))
	l2.Sync()
	l2.Close()
	got = collect(t, path)
	if len(got) != 2 || string(got[1]) != "third" {
		t.Fatalf("append after truncation: records %q", got)
	}
}

// TestLogCRCMismatch flips a payload byte: the corrupted record and
// everything after it fall off the valid prefix.
func TestLogCRCMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _ := OpenLog(path, nil)
	l.Append([]byte("aaaa"))
	l.Append([]byte("bbbb"))
	l.Append([]byte("cccc"))
	l.Sync()
	l.Close()

	data, _ := os.ReadFile(path)
	// Corrupt the middle record's payload (record layout: 8-byte header +
	// 4-byte payload each).
	data[frameHeader+4+frameHeader] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	got := collect(t, path)
	if len(got) != 1 || string(got[0]) != "aaaa" {
		t.Fatalf("after mid-log corruption: records %q, want just %q (prefix semantics)", got, "aaaa")
	}
}

// TestLogImpossibleLength writes a length field larger than MaxRecord:
// treated as corruption, not an allocation request.
func TestLogImpossibleLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _ := OpenLog(path, nil)
	l.Append([]byte("ok"))
	l.Sync()
	l.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:], MaxRecord+1)
	f.Write(hdr[:])
	f.Close()
	got := collect(t, path)
	if len(got) != 1 || string(got[0]) != "ok" {
		t.Fatalf("after impossible length: records %q", got)
	}
}

// shardState reopens dir and returns shard i's recovered roots.
func shardState(t *testing.T, dir string, shards, procs int, i int) map[string]int64 {
	t.Helper()
	db, err := Open(dir, shards, procs, 4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	got := map[string]int64{}
	db.RangeShard(i, func(k string, v int64) { got[k] = v })
	return got
}

func TestDBShardRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := db.ShardBacking(0)
	b.Persist("k1", 10)
	b.Persist("k2", 20)
	b.Persist("k1", 11) // last-wins
	db.ShardBacking(1).Persist("other", 7)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	if got := shardState(t, dir, 2, 2, 0); !reflect.DeepEqual(got, map[string]int64{"k1": 11, "k2": 20}) {
		t.Fatalf("shard 0 recovered %v", got)
	}
	if got := shardState(t, dir, 2, 2, 1); !reflect.DeepEqual(got, map[string]int64{"other": 7}) {
		t.Fatalf("shard 1 recovered %v", got)
	}
}

// TestRecoveryIdempotence: recovering twice (open → close → open) yields
// exactly the state recovering once did — recovery performs no writes that
// change the logical state.
func TestRecoveryIdempotence(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, 1, 2, 4)
	for i := 0; i < 50; i++ {
		db.ShardBacking(0).Persist("k", int64(i))
	}
	db.AppendHello(3, 1)
	db.CommitOutcome(3, 9, []byte("reply-nine"))
	db.ShardBacking(0).Persist("k", 50) // an uncommitted tail record
	db.Close()

	// Tear the log tail (the put above) so recovery also exercises the
	// truncation path.
	path := filepath.Join(dir, walName)
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)-3], 0o644)

	first := shardState(t, dir, 1, 2, 0)
	second := shardState(t, dir, 1, 2, 0)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("recovery not idempotent: %v then %v", first, second)
	}
	db2, _ := Open(dir, 1, 2, 4)
	s1 := db2.Sessions()
	db2.Close()
	db3, _ := Open(dir, 1, 2, 4)
	s2 := db3.Sessions()
	db3.Close()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("session recovery not idempotent: %v then %v", s1, s2)
	}
	if len(s1) != 1 || s1[0].SID != 3 || string(s1[0].Window[9]) != "reply-nine" {
		t.Fatalf("recovered sessions %v", s1)
	}
}

// TestShardCompaction drives the log over a tiny threshold with shard puts
// and checks the snapshot+log pair still recovers the exact state.
func TestShardCompaction(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, 1, 1, 4)
	db.SetCompactThreshold(256)
	for i := 0; i < 100; i++ {
		db.ShardBacking(0).Persist("hot", int64(i))
		db.ShardBacking(0).Persist("cold", -1)
	}
	db.Sync()
	db.Close()

	snap := filepath.Join(dir, snapName)
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("no snapshot written despite threshold: %v", err)
	}
	if st, _ := os.Stat(filepath.Join(dir, walName)); st.Size() >= 256+64 {
		t.Fatalf("log did not reset at compaction: %d bytes", st.Size())
	}
	got := shardState(t, dir, 1, 1, 0)
	if !reflect.DeepEqual(got, map[string]int64{"hot": 99, "cold": -1}) {
		t.Fatalf("recovered %v", got)
	}
}

// TestTruncatedSnapshot cuts the snapshot file mid-record: recovery keeps
// its valid prefix and still layers the log on top.
func TestTruncatedSnapshot(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, 1, 1, 4)
	db.ShardBacking(0).Persist("aa", 1)
	db.ShardBacking(0).Persist("bb", 2)
	db.Compact()
	db.ShardBacking(0).Persist("cc", 3) // post-snapshot, lives in the log
	db.Sync()
	db.Close()

	snap := filepath.Join(dir, snapName)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-way through the second record.
	cut := frameHeader + len(encodePut(nil, 0, "aa", 1)) + 4
	os.WriteFile(snap, data[:cut], 0o644)

	got := shardState(t, dir, 1, 1, 0)
	// Snapshot puts are sorted (aa, bb); cutting inside bb loses it but
	// keeps the aa prefix, and the log's cc still applies.
	want := map[string]int64{"aa": 1, "cc": 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

func TestSessionWindowEvictionAndEnd(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, 1, 2, 3) // window of 3
	db.AppendHello(1, 0)
	db.AppendHello(2, 1)
	for req := uint64(1); req <= 6; req++ {
		db.CommitOutcome(1, req, []byte{byte(req)})
	}
	db.AppendEnd(2)
	db.Close()

	db2, _ := Open(dir, 1, 2, 3)
	defer db2.Close()
	ss := db2.Sessions()
	if len(ss) != 1 || ss[0].SID != 1 {
		t.Fatalf("recovered sessions %v, want only sid 1", ss)
	}
	if ss[0].MaxID != 6 || len(ss[0].Window) != 3 {
		t.Fatalf("window maxID=%d len=%d, want 6 and 3", ss[0].MaxID, len(ss[0].Window))
	}
	for req := uint64(4); req <= 6; req++ {
		if string(ss[0].Window[req]) != string([]byte{byte(req)}) {
			t.Fatalf("window[%d] = %q", req, ss[0].Window[req])
		}
	}
	if db2.NextSID() != 2 {
		t.Fatalf("NextSID = %d, want 2 (high-water survives the ended session)", db2.NextSID())
	}
}

// TestSessionsCompactionKeepsNextSID ends every session, compacts, and
// checks the high-water mark still prevents session-ID reuse.
func TestSessionsCompactionKeepsNextSID(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, 1, 2, 4)
	db.AppendHello(7, 0)
	db.AppendEnd(7)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2, _ := Open(dir, 1, 2, 4)
	defer db2.Close()
	if got := db2.NextSID(); got != 7 {
		t.Fatalf("NextSID after compaction = %d, want 7", got)
	}
}

func TestNoteSIDRaisesHighWater(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, 1, 2, 4)
	db.AppendHello(1, 0)
	if err := db.NoteSID(2); err != nil { // observer ID, no session record
		t.Fatal(err)
	}
	if err := db.NoteSID(1); err != nil { // never lowers
		t.Fatal(err)
	}
	db.Close()
	db2, _ := Open(dir, 1, 2, 4)
	defer db2.Close()
	if got := db2.NextSID(); got != 2 {
		t.Fatalf("NextSID = %d, want 2", got)
	}
	if n := len(db2.Sessions()); n != 1 {
		t.Fatalf("recovered %d sessions, want 1 (NoteSID records no session)", n)
	}
}

func TestOpenRefusesSecondProcess(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := Open(dir, 1, 1, 4); err == nil {
		t.Fatal("second concurrent Open of the same data dir succeeded; want flock refusal")
	}
}

// TestOpenReusableAfterClose pins that the lock dies with the DB, so a
// clean close (or a killed process) never wedges the next open.
func TestOpenReusableAfterClose(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, 1, 1, 4)
	db.Close()
	db2, err := Open(dir, 1, 1, 4)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	db2.Close()
}

func TestManifestGeometryMismatch(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, 4, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := Open(dir, 2, 8, 4); err == nil {
		t.Fatal("reopen with different shard count succeeded; want refusal")
	}
	if _, err := Open(dir, 4, 4, 4); err == nil {
		t.Fatal("reopen with different proc count succeeded; want refusal")
	}
	db2, err := Open(dir, 4, 8, 4)
	if err != nil {
		t.Fatalf("reopen with original geometry: %v", err)
	}
	db2.Close()
}

// TestCommitOutcomeOrdering checks the observable half of the durability
// contract: after CommitOutcome returns, both the journaled mutations and
// the outcome record survive a reopen.
func TestCommitOutcomeOrdering(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir, 2, 2, 4)
	db.AppendHello(1, 0)
	db.ShardBacking(0).Persist("k", 42)
	db.ShardBacking(1).Persist("j", 43)
	if err := db.CommitOutcome(1, 5, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	db.Close()

	if got := shardState(t, dir, 2, 2, 0); got["k"] != 42 {
		t.Fatalf("shard 0 lost the pre-outcome mutation: %v", got)
	}
	if got := shardState(t, dir, 2, 2, 1); got["j"] != 43 {
		t.Fatalf("shard 1 lost the pre-outcome mutation: %v", got)
	}
	db2, _ := Open(dir, 2, 2, 4)
	defer db2.Close()
	ss := db2.Sessions()
	if len(ss) != 1 || string(ss[0].Window[5]) != "ok" {
		t.Fatalf("outcome window lost: %v", ss)
	}
}

// TestAppendDuringSync pins that Append never waits out an fsync: with the
// log's fsync blocked, a concurrent Append returns at once, the blocked
// Sync does not count that record as durable, and the next Sync does.
func TestAppendDuringSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	entered, release := make(chan struct{}, 2), make(chan struct{})
	l.syncFn = func(f File) error {
		entered <- struct{}{}
		<-release
		return f.Sync()
	}
	if err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	go func() { synced <- l.Sync() }()
	<-entered // the first Sync is now inside its fsync

	appended := make(chan error, 1)
	go func() { appended <- l.Append([]byte("second")) }()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		close(release)
		t.Fatal("Append waited for an in-flight fsync")
	}
	close(release)
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if got := collect(t, path); len(got) != 1 || string(got[0]) != "first" {
		t.Fatalf("after the blocked Sync the file holds %q, want just %q", got, "first")
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, path); len(got) != 2 || string(got[1]) != "second" {
		t.Fatalf("after the second Sync the file holds %q, want first and second", got)
	}
}

// TestOpenRefusesV1Directory writes data directories in the previous
// layout (one log per shard plus a sessions log, MANIFEST version 1) and
// requires Open to refuse them, naming the version found and the version
// this build reads, rather than start empty over the old data.
func TestOpenRefusesV1Directory(t *testing.T) {
	oldPut := func(key string, val int64) []byte {
		rec := binary.BigEndian.AppendUint16([]byte{0x01}, uint16(len(key)))
		rec = append(rec, key...)
		return frame(binary.BigEndian.AppendUint64(rec, uint64(val)))
	}
	hello := frame(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64([]byte{0x02}, 1), 0))
	v1 := map[string][]byte{
		"MANIFEST":      []byte(`{"version":1,"shards":2,"procs":2}` + "\n"),
		"shard-000.log": oldPut("k", 7),
		"shard-001.log": oldPut("j", 8),
		"sessions.log":  hello,
	}
	for name, files := range map[string]map[string][]byte{
		"v1 manifest":         v1,
		"leftover shard logs": {"shard-000.log": v1["shard-000.log"], "sessions.log": hello},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for f, data := range files {
				if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			db, err := Open(dir, 2, 2, 4)
			if err == nil {
				db.Close()
				t.Fatal("Open accepted a version-1 data directory")
			}
			for _, want := range []string{"version 1", "version 2"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
			}
		})
	}
}
