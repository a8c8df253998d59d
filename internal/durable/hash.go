package durable

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// StateHash returns a canonical SHA-256 digest of everything recovery
// produces from a data directory: every shard's key→value mirror, every
// live session with its leased slot, high-water request ID and outcome
// window, and the session-ID high-water mark — each serialized in a fixed
// sorted order with length-prefixed fields so distinct states can never
// collide by concatenation.
//
// This is the deterministic-step/state-hash idiom (Cannon's MIPS state
// root, transplanted to recovery): because the hash is a pure function of
// the logical state, "recovery is a pure function of the byte image" and
// "replay is idempotent" become single hash comparisons instead of
// spot-checks. The crash-prefix sweep (internal/simio) recovers every crash
// image twice and re-recovers the recovered image, requiring all three
// hashes equal; the restart harnesses compare hashes across real process
// incarnations.
func (db *DB) StateHash() string {
	h := sha256.New()
	var num [8]byte
	writeU64 := func(v uint64) {
		binary.BigEndian.PutUint64(num[:], v)
		h.Write(num[:])
	}
	writeBytes := func(b []byte) {
		writeU64(uint64(len(b)))
		h.Write(b)
	}
	writeStr := func(s string) {
		writeU64(uint64(len(s)))
		h.Write([]byte(s))
	}

	writeU64(uint64(db.NumShards()))
	for i := 0; i < db.NumShards(); i++ {
		// RangeShard iterates in sorted key order — the canonical order.
		db.RangeShard(i, func(key string, val int64) {
			writeStr(key)
			writeU64(uint64(val))
		})
		writeStr("|shard|")
	}

	sessions := db.Sessions() // sorted by SID
	writeU64(uint64(len(sessions)))
	for _, s := range sessions {
		writeU64(s.SID)
		writeU64(uint64(int64(s.PID)))
		writeU64(s.MaxID)
		reqs := sortedKeys(s.Window)
		writeU64(uint64(len(reqs)))
		for _, id := range reqs {
			writeU64(id)
			writeBytes(s.Window[id])
		}
	}
	writeU64(db.NextSID())
	return hex.EncodeToString(h.Sum(nil))
}
