package simio

// Crash-prefix model-checking of the replication APPLY path: a warm
// standby's data directory is written by Replica.Apply rather than by the
// commit protocol, and PR 9's claim is that it satisfies the exact same
// invariants — any crash prefix of the backup's disk recovers, never
// shows an outcome without its effect, preserves every barrier-acked
// verdict, and recovers purely and idempotently (durable.StateHash).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"detectable/internal/durable"
)

// Log record kinds as they appear inside ReplRec messages.
// Mirrored here because the on-disk kinds are internal to durable; they
// are a stable format (docs/DURABILITY.md).
const (
	sessRecOutcome = 0x03
	sessRecEnd     = 0x04
)

func TestReplicaApplyCrashPrefixes(t *testing.T) {
	cfg := SweepConfig{Dir: "/data", Shards: 2, Procs: 3, Window: 8}

	// Primary: live-tap subscription opened before the workload, so the
	// stream carries every record and every barrier in commit order.
	pfs := New()
	pdb, err := durable.OpenFs(pfs, cfg.Dir, cfg.Shards, cfg.Procs, cfg.Window)
	if err != nil {
		t.Fatalf("primary open: %v", err)
	}
	sub := pdb.Subscribe(0, false)
	if err := pdb.AppendHello(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := pdb.AppendHello(2, 1); err != nil {
		t.Fatal(err)
	}
	reqs := map[uint64]uint64{}
	commit := func(sid uint64, i int) {
		shard := i % cfg.Shards
		key := fmt.Sprintf("s%d-k%d", shard, (i/cfg.Shards)%2)
		val := int64(i + 1)
		pdb.ShardBacking(shard).Persist(key, val)
		reqs[sid]++
		if err := pdb.CommitOutcome(sid, reqs[sid], encodeReply(key, val)); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	i := 0
	for ; i < 8; i++ {
		commit(1+uint64(i%2), i)
	}
	if err := pdb.AppendHello(3, 2); err != nil {
		t.Fatal(err)
	}
	commit(3, i)
	if err := pdb.AppendEnd(3); err != nil {
		t.Fatal(err)
	}
	sub.Close()
	var msgs [][]byte
	for {
		chunk, err := sub.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatalf("Next: %v", err)
		}
		for len(chunk) > 0 {
			n := int(binary.BigEndian.Uint32(chunk))
			msgs = append(msgs, append([]byte(nil), chunk[4:4+n]...))
			chunk = chunk[4+n:]
		}
	}

	// Backup: apply the stream, tracking each verdict's release point in
	// the BACKUP's journal — a verdict counts as released (ackable) only
	// once its barrier's Apply returned, and a session's END could reach
	// the medium from the moment its barrier's Apply began.
	bfs := New()
	bdb, err := durable.OpenFs(bfs, cfg.Dir, cfg.Shards, cfg.Procs, cfg.Window)
	if err != nil {
		t.Fatalf("backup open: %v", err)
	}
	rep := bdb.NewReplica()
	var rel, pending []released
	endPending := map[uint64]bool{}
	for _, m := range msgs {
		if m[0] == durable.ReplRec && len(m) > 1 {
			rec := m[1:]
			switch rec[0] {
			case sessRecOutcome:
				sid := binary.BigEndian.Uint64(rec[1:])
				req := binary.BigEndian.Uint64(rec[9:])
				if key, val, ok := decodeReply(rec[21:]); ok {
					pending = append(pending, released{
						sid: sid, req: req, key: key, val: val, endedAt: math.MaxInt,
					})
				}
			case sessRecEnd:
				endPending[binary.BigEndian.Uint64(rec[1:])] = true
			}
		}
		preOps := bfs.Ops()
		_, barrier, err := rep.Apply(m)
		if err != nil {
			t.Fatalf("Apply (kind 0x%02x): %v", m[0], err)
		}
		if !barrier {
			continue
		}
		at := bfs.Ops()
		for j := range pending {
			pending[j].releasedAt = at
		}
		rel = append(rel, pending...)
		pending = pending[:0]
		for sid := range endPending {
			for j := range rel {
				if rel[j].sid == sid && rel[j].endedAt == math.MaxInt {
					rel[j].endedAt = preOps
				}
			}
			delete(endPending, sid)
		}
	}
	if got, want := bdb.StateHash(), pdb.StateHash(); got != want {
		t.Fatalf("backup hash %s, primary %s", got, want)
	}
	if err := bdb.Close(); err != nil {
		t.Fatalf("backup close: %v", err)
	}
	pdb.Close()

	// Sweep every crash point of the backup's journal through the standard
	// image checks.
	journal := bfs.Journal()
	if len(journal) == 0 {
		t.Fatal("backup journaled nothing; the apply path is not under test")
	}
	images := 0
	for k := 0; k <= len(journal); k++ {
		EnumerateImages(journal, k, RecordAwareCuts, 6, func(img Image) bool {
			images++
			if v := checkImage(cfg, img, rel, k); v != nil {
				t.Errorf("backup crash point %d: %s", k, v.Detail)
				return false
			}
			return true
		})
		if t.Failed() {
			break
		}
	}
	t.Logf("backup journal: %d ops, %d images checked", len(journal), images)
}
