package durable_test

// The format-equivalence table: one set of deterministic workloads, each
// pinned to the StateHash its recovered state must produce. The constants
// were recorded under the previous on-disk format (one log per shard plus a
// sessions log), so any later format must recover exactly the same logical
// state from the same operations — live, after a clean reopen, and on a
// replica fed by the replication stream.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"detectable/internal/durable"
	"detectable/internal/simio"
)

// commitFn journals one put and commits its verdict for session sid.
type commitFn func(sid uint64, shard int, key string, val int64)

// newCommitter returns a commitFn over db that numbers request IDs per
// session and fails the test on any error.
func newCommitter(t *testing.T, db *durable.DB) commitFn {
	var mu sync.Mutex
	reqs := map[uint64]uint64{}
	return func(sid uint64, shard int, key string, val int64) {
		db.ShardBacking(shard).Persist(key, val)
		mu.Lock()
		reqs[sid]++
		req := reqs[sid]
		mu.Unlock()
		if err := db.CommitOutcome(sid, req, []byte(fmt.Sprintf("%s=%d", key, val))); err != nil {
			t.Errorf("CommitOutcome(%d, %d): %v", sid, req, err)
		}
	}
}

// mixed is the common body: two sessions committing across every shard,
// an observer-ID burn, and a third session that commits and ends.
func mixed(t *testing.T, db *durable.DB, ops int, base int64) {
	t.Helper()
	must(t, db.AppendHello(1, 0))
	must(t, db.AppendHello(2, 1))
	commit := newCommitter(t, db)
	for i := 0; i < ops; i++ {
		shard := i % testShards
		commit(1+uint64(i%2), shard, fmt.Sprintf("s%d-k%d", shard, i%5), base+int64(i))
		if i == ops/2 {
			must(t, db.NoteSID(100))
		}
	}
	must(t, db.AppendHello(3, 2))
	commit(3, 1, "ephemeral", base-1)
	must(t, db.AppendEnd(3))
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

var formatCases = []struct {
	name string
	run  func(t *testing.T, db *durable.DB)
	want string
}{
	{
		name: "per-mutation",
		run:  func(t *testing.T, db *durable.DB) { mixed(t, db, 24, 1000) },
		want: "e9dc5a1c3d46be9de6a17d5af41045eb355bcc44819661f7d4eb047a24ed17a6",
	},
	{
		name: "group-commit",
		run: func(t *testing.T, db *durable.DB) {
			db.StartGroupCommit(0)
			mixed(t, db, 24, 2000)
		},
		want: "b7f4b5a1d2a379f8a91f53da75f173e39af4535a342c5c763c1ea426b63593a5",
	},
	{
		name: "four-member-epoch",
		run: func(t *testing.T, db *durable.DB) {
			must(t, db.AppendHello(1, 0))
			commit := newCommitter(t, db)
			commit(1, 0, "before", 1)
			db.StartGroupCommit(time.Hour) // anchors only on the drain below
			_, before := db.GroupCommitStats()
			var wg sync.WaitGroup
			for m := 0; m < 4; m++ {
				wg.Add(1)
				go func(m int) {
					defer wg.Done()
					// Explicit request IDs: the members park in any order.
					key := fmt.Sprintf("member-%d", m)
					db.ShardBacking(m%testShards).Persist(key, int64(10+m))
					if err := db.CommitOutcome(1, uint64(2+m), []byte(key)); err != nil {
						t.Errorf("member %d: %v", m, err)
					}
				}(m)
			}
			for {
				if _, c := db.GroupCommitStats(); c >= before+4 {
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			db.StopGroupCommit()
			wg.Wait()
			must(t, db.AppendHello(2, 1))
			commit(2, 1, "after", 2)
		},
		want: "08d30a1e1597e645508c3cc534fdae1348eb094a09f5f7ff84adc46d1251054c",
	},
	{
		name: "tiny-compaction",
		run: func(t *testing.T, db *durable.DB) {
			db.SetCompactThreshold(64)
			mixed(t, db, 40, 3000)
		},
		want: "f460becaad2eb8471db849ddd8a994d77ccd3d44ad0f9db5166bce9dccd8127e",
	},
	{
		name: "session-churn",
		run: func(t *testing.T, db *durable.DB) {
			commit := newCommitter(t, db)
			for sid := uint64(1); sid <= 12; sid++ {
				must(t, db.AppendHello(sid, int(sid)%testProcs))
				if sid%3 == 0 {
					commit(sid, int(sid)%testShards, fmt.Sprintf("churn-%d", sid), int64(sid))
				}
				must(t, db.NoteSID(50+sid))
				if sid%4 != 1 {
					must(t, db.AppendEnd(sid))
				}
			}
		},
		want: "0b31976553d26b261b3bcf2f7c6333a9b7810af42988f634ec5b4db7c665432b",
	},
}

// TestFormatGoldenHashes runs every case on a fresh simulated directory and
// requires the pinned StateHash live and after a clean reopen.
func TestFormatGoldenHashes(t *testing.T) {
	for _, tc := range formatCases {
		t.Run(tc.name, func(t *testing.T) {
			fsim := simio.New()
			db := openSim(t, fsim)
			tc.run(t, db)
			live := db.StateHash()
			must(t, db.Close())
			db = openSim(t, fsim)
			recovered := db.StateHash()
			must(t, db.Close())
			if live != recovered {
				t.Fatalf("recovered hash %s, live %s", recovered, live)
			}
			if live != tc.want {
				t.Fatalf("hash %s, want %s", live, tc.want)
			}
		})
	}
}

// TestFormatGoldenReplicaStream feeds a subscription opened mid-workload
// (fuzzy snapshot, then the live tap) through Replica.Apply and requires
// the pinned StateHash on the primary, the replica, and the replica's
// recovered directory.
func TestFormatGoldenReplicaStream(t *testing.T) {
	const want = "ecbd3ac8118a8f1dc721cb3fdf98ae8744809cf7f139d5ee6797e8513f1ceff8"
	pdb := openSim(t, simio.New())
	defer pdb.Close()
	commit := newCommitter(t, pdb)
	must(t, pdb.AppendHello(7, 0))
	for i := 0; i < 6; i++ {
		commit(7, i%testShards, fmt.Sprintf("pre-%d", i%3), int64(i))
	}
	sub := pdb.Subscribe(0, false)
	mixed(t, pdb, 12, 4000)
	sub.Close()
	msgs := drain(t, sub)

	bfs := simio.New()
	bdb := openSim(t, bfs)
	applyAll(t, bdb.NewReplica(), msgs)
	replica := bdb.StateHash()
	must(t, bdb.Close())
	bdb = openSim(t, bfs)
	recovered := bdb.StateHash()
	must(t, bdb.Close())

	for name, got := range map[string]string{"primary": pdb.StateHash(), "replica": replica, "recovered replica": recovered} {
		if got != want {
			t.Errorf("%s hash %s, want %s", name, got, want)
		}
	}
}
