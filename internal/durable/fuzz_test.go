package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// frame builds one valid log frame for seeding.
func frame(payload []byte) []byte {
	var b []byte
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// validLog returns the bytes of a well-formed log: a put for shard 1,
// then hello, outcome, next-sid, end.
func validLog() []byte {
	var out []byte
	out = append(out, frame(encodePut(nil, 1, "k", 1))...)
	out = append(out, frame(appendU64Rec(nil, recHello, 1, 0))...)
	out = append(out, frame(appendOutcomeRec(nil, 1, 1, []byte("k=1")))...)
	out = append(out, frame(appendU64Rec(nil, recNextSID, 9))...)
	out = append(out, frame(appendU64Rec(nil, recEnd, 1))...)
	return out
}

// FuzzOpenLog feeds arbitrary bytes to the log opener: it must never
// panic, must recover a valid record prefix (truncating any garbage
// tail), and reopening what it left behind must yield byte-identical
// records — recovery of a recovered log is a fixpoint.
func FuzzOpenLog(f *testing.F) {
	valid := validLog()
	f.Add([]byte{})
	f.Add(valid)
	// Flipped CRC byte in the second frame.
	flipped := append([]byte(nil), valid...)
	flipped[FrameHeader+len(flipped[FrameHeader:])/4] ^= 0xff
	f.Add(flipped)
	// Torn tail mid-frame.
	f.Add(valid[:len(valid)-3])
	// Impossible length prefix.
	f.Add(binary.BigEndian.AppendUint32(nil, uint32(MaxRecord+1)))
	// Length that overruns the file.
	f.Add(frame([]byte("x"))[:6])

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var recs [][]byte
		l, err := OpenLog(path, func(rec []byte) error {
			recs = append(recs, append([]byte(nil), rec...))
			return nil
		})
		if err != nil {
			return // structured rejection is fine; panics are the bug
		}
		l.Close()

		// Fixpoint: the truncated-on-open log replays identically.
		var recs2 [][]byte
		l2, err := OpenLog(path, func(rec []byte) error {
			recs2 = append(recs2, append([]byte(nil), rec...))
			return nil
		})
		if err != nil {
			t.Fatalf("reopen of a recovered log failed: %v", err)
		}
		l2.Close()
		if len(recs) != len(recs2) {
			t.Fatalf("recovered %d records, reopen recovered %d", len(recs), len(recs2))
		}
		for i := range recs {
			if !bytes.Equal(recs[i], recs2[i]) {
				t.Fatalf("record %d differs across reopen: %x vs %x", i, recs[i], recs2[i])
			}
		}
	})
}

// FuzzOpenDB plants fuzz bytes as a valid data directory's log: Open must
// never panic — it either recovers (and then the recovered state is
// stable: an immediate reopen yields the same StateHash) or refuses with
// an error.
func FuzzOpenDB(f *testing.F) {
	f.Add([]byte{})
	f.Add(validLog())
	// A put for a shard the directory does not have, then a flipped
	// payload byte.
	mut := append(frame(encodePut(nil, 5, "k", 7)), validLog()...)
	mut[len(mut)-1] ^= 0x01
	f.Add(mut)
	f.Add(append(binary.BigEndian.AppendUint32(nil, 0xffffffff), frame([]byte{recHello})...))

	f.Fuzz(func(t *testing.T, logBytes []byte) {
		dir := t.TempDir()
		db, err := Open(dir, 2, 2, 16)
		if err != nil {
			t.Fatal(err)
		}
		db.ShardBacking(0).Persist("seed", 1)
		if err := db.AppendHello(1, 0); err != nil {
			t.Fatal(err)
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		db.Close()
		if err := os.WriteFile(filepath.Join(dir, walName), logBytes, 0o644); err != nil {
			t.Fatal(err)
		}

		db1, err := Open(dir, 2, 2, 16)
		if err != nil {
			return // refusing corrupt input is fine
		}
		h1 := db1.StateHash()
		db1.Close()
		db2, err := Open(dir, 2, 2, 16)
		if err != nil {
			t.Fatalf("reopen after successful recovery failed: %v", err)
		}
		h2 := db2.StateHash()
		db2.Close()
		if h1 != h2 {
			t.Fatalf("recovered state not stable across reopen: %s then %s", h1, h2)
		}
	})
}
