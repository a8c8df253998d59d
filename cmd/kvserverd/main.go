// Command kvserverd serves the sharded detectable key-value store over TCP
// using the session protocol of internal/server (docs/PROTOCOL.md): each
// client session leases one process slot of the store's N-process model,
// and a client that reconnects after a dropped connection can re-issue its
// in-flight request ID and receive the original detectable verdict.
//
// With -data the daemon is durable (docs/DURABILITY.md): every shard's
// linearized mutations and every session's outcome window are journaled to
// CRC-framed record logs under the data directory, fsynced before verdicts
// are released. On startup the daemon recovers all shards and session
// windows from disk (truncating torn or corrupted log tails to the last
// valid prefix), so even a SIGKILL of the whole process preserves
// exactly-once detectability: a resumed client still receives the original
// verdict. The directory's geometry manifest is enforced — reopening with
// different -shards/-procs is refused.
//
// Usage:
//
//	kvserverd [-addr :7070] [-shards 4] [-procs 8] [-data dir] [-dur 0]
//	          [-group-commit] [-epoch-interval 0]
//	          [-replica-of addr] [-promote] [-v]
//
// With -replica-of the daemon starts as a warm standby (requires -data):
// it feeds its durable directory from the primary's replication stream,
// acks every commit barrier (the primary releases verdicts only after
// both nodes fsynced — docs/REPLICATION.md), and serves only observer
// sessions until promoted. -promote is an admin verb, not a server mode:
// it connects to -addr as an observer, issues PROMOTE, prints the fencing
// generation and exits — promoting a standby into the serving primary, or
// fencing a node that is already primary.
//
// With -group-commit (the default when durable), concurrent commits
// coalesce into epochs sharing one fsync: every mutating reply is
// released on its epoch's boundary, after the fsync that anchors it, so
// detectability is never weakened — N writers just split the cost of the
// barrier instead of each paying it. -epoch-interval adds a batching
// window before each epoch anchors, trading reply latency for wider
// batches; 0 anchors as soon as the committer is free.
//
// -dur 0 serves until SIGINT/SIGTERM; a positive duration serves for that
// long and exits (used by smoke tests). On shutdown the daemon prints the
// aggregate operation/verdict/crash counters.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"detectable/internal/client"
	"detectable/internal/durable"
	"detectable/internal/server"
	"detectable/internal/shardkv"
)

func main() {
	addr := flag.String("addr", ":7070", "TCP listen address")
	shards := flag.Int("shards", 4, "number of independent shards")
	procs := flag.Int("procs", 8, "process slots (max concurrent non-observer sessions)")
	data := flag.String("data", "", "durable data directory (empty = in-memory only; state dies with the process)")
	dur := flag.Duration("dur", 0, "serve duration (0 = until SIGINT/SIGTERM)")
	groupCommit := flag.Bool("group-commit", true, "coalesce concurrent commits into epochs sharing one fsync")
	epochInterval := flag.Duration("epoch-interval", 0, "group-commit batching window (0 = anchor epochs immediately)")
	replicaOf := flag.String("replica-of", "", "start as a warm standby replicating from the primary at this address (requires -data)")
	promote := flag.Bool("promote", false, "admin verb: ask the server at -addr to promote (standby → primary, primary → fenced) and exit")
	verbose := flag.Bool("v", false, "print the per-shard breakdown on shutdown")
	flag.Parse()
	if *promote {
		if err := runPromote(*addr); err != nil {
			fmt.Fprintln(os.Stderr, "kvserverd:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*addr, *shards, *procs, *data, *dur, *groupCommit, *epochInterval, *replicaOf, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "kvserverd:", err)
		os.Exit(1)
	}
}

// runPromote issues PROMOTE over an observer session and reports the
// fencing generation the node now serves (or refuses) under.
func runPromote(addr string) error {
	c, err := client.DialObserver(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	gen, err := c.Promote()
	if err != nil {
		return err
	}
	fmt.Printf("kvserverd: promoted %s generation=%d\n", addr, gen)
	return nil
}

func run(addr string, shards, procs int, data string, dur time.Duration, groupCommit bool, epochInterval time.Duration, replicaOf string, verbose bool) error {
	if shards < 1 || procs < 1 {
		return fmt.Errorf("need shards ≥ 1 and procs ≥ 1 (got shards=%d procs=%d)", shards, procs)
	}
	if replicaOf != "" && data == "" {
		return fmt.Errorf("-replica-of needs -data: the standby mirrors the primary into a durable directory")
	}

	var (
		db  *durable.DB
		err error
	)
	var opts []shardkv.Option
	if data != "" {
		if db, err = durable.Open(data, shards, procs, server.Window); err != nil {
			return err
		}
		defer db.Close()
		opts = append(opts, shardkv.Durable(db))
	}
	var srv *server.Server
	if replicaOf != "" {
		srv = server.NewStandby(db, func() *shardkv.Store { return shardkv.New(shards, procs, opts...) })
		if groupCommit {
			db.StartGroupCommit(epochInterval)
		}
		if err := srv.StartReplication(replicaOf); err != nil {
			return err
		}
		go func() {
			<-srv.Promoted()
			fmt.Printf("kvserverd: promoted to primary generation=%d\n", db.Generation())
		}()
	} else {
		store := shardkv.New(shards, procs, opts...)
		srv = server.New(store)
		if db != nil {
			if err := srv.AttachDurable(db); err != nil {
				return err
			}
			keys := 0
			for i := 0; i < shards; i++ {
				db.RangeShard(i, func(string, int64) { keys++ })
			}
			fmt.Printf("kvserverd: recovered data=%s keys=%d sessions=%d\n", data, keys, srv.Sessions())
			if groupCommit {
				db.StartGroupCommit(epochInterval)
			}
		}
	}
	if err := srv.Listen(addr); err != nil {
		return err
	}
	if replicaOf != "" {
		fmt.Printf("kvserverd: standby addr=%s shards=%d procs=%d replicating-from=%s\n",
			srv.Addr(), shards, procs, replicaOf)
	} else {
		fmt.Printf("kvserverd: serving addr=%s shards=%d procs=%d durable=%v group-commit=%v\n",
			srv.Addr(), shards, procs, db != nil, db != nil && groupCommit)
	}

	if dur > 0 {
		time.Sleep(dur)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("kvserverd: shutting down")
	}
	if err := srv.Close(); err != nil {
		return err
	}
	if db != nil {
		db.StopGroupCommit()
		if err := db.Sync(); err != nil {
			return err
		}
		if epochs, commits := db.GroupCommitStats(); epochs > 0 {
			fmt.Printf("group-commit: epochs=%d commits=%d (%.1f commits/fsync)\n",
				epochs, commits, float64(commits)/float64(epochs))
		}
	}

	store := srv.Store() // nil for a standby that was never promoted
	if store == nil {
		fmt.Println("standby: shut down before promotion (no data served)")
		return nil
	}
	t := store.TotalStats()
	fmt.Printf("served: %d ops — gets=%d puts=%d dels=%d\n", t.Ops(), t.Gets, t.Puts, t.Dels)
	fmt.Printf("verdicts: ok=%d recovered=%d failed=%d not-invoked=%d\n", t.OK, t.Recovered, t.Failed, t.NotInvoked)
	fmt.Printf("crashes: injected=%d interruptions-observed=%d\n", t.CrashesInjected, t.CrashesSeen)
	if verbose {
		for i, st := range store.Snapshots() {
			fmt.Printf("shard %d: ops=%d recovered=%d failed=%d crashes=%d\n",
				i, st.Ops(), st.Recovered, st.Failed, st.CrashesInjected)
		}
	}
	return nil
}
