package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitCoalesces drives many concurrent commits through the
// epoch pipeline and checks both halves of the contract: every committed
// verdict survives a reopen, and the commits shared materially fewer
// epochs (fsyncs) than there were commits.
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, 2, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	db.StartGroupCommit(2 * time.Millisecond)
	if err := db.AppendHello(1, 0); err != nil {
		t.Fatal(err)
	}

	const workers, per = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				req := uint64(w*per + i + 1)
				db.ShardBacking(int(req) % 2).Persist(fmt.Sprintf("k%03d", req), int64(req))
				if err := db.CommitOutcome(1, req, []byte{byte(req)}); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("CommitOutcome: %v", err)
	}
	epochs, commits := db.GroupCommitStats()
	if commits != workers*per {
		t.Fatalf("commits = %d, want %d", commits, workers*per)
	}
	if epochs == 0 || epochs > commits/2 {
		t.Fatalf("epochs = %d for %d commits: expected coalescing", epochs, commits)
	}
	db.Close()

	db2, err := Open(dir, 2, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ss := db2.Sessions()
	if len(ss) != 1 || len(ss[0].Window) != workers*per {
		t.Fatalf("recovered %d sessions / %d outcomes, want 1 / %d", len(ss), len(ss[0].Window), workers*per)
	}
	for req, reply := range ss[0].Window {
		if len(reply) != 1 || reply[0] != byte(req) {
			t.Fatalf("outcome %d recovered as %v", req, reply)
		}
	}
}

// TestGroupCommitDrainsOnStop checks that StopGroupCommit anchors the
// in-flight epoch before returning and that commits after the stop take
// the synchronous path.
func TestGroupCommitDrainsOnStop(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, 1, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	db.StartGroupCommit(time.Hour) // epoch would linger forever without the drain
	db.AppendHello(1, 0)
	done := make(chan error, 1)
	go func() {
		db.ShardBacking(0).Persist("k", 1)
		done <- db.CommitOutcome(1, 1, []byte("a"))
	}()
	// Give the commit time to park on the epoch, then stop: the drain must
	// release it without waiting out the interval.
	time.Sleep(20 * time.Millisecond)
	db.StopGroupCommit()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit still parked after StopGroupCommit")
	}
	if err := db.CommitOutcome(1, 2, []byte("b")); err != nil {
		t.Fatalf("synchronous commit after stop: %v", err)
	}
	db.Close()

	db2, _ := Open(dir, 1, 2, 16)
	defer db2.Close()
	ss := db2.Sessions()
	if len(ss) != 1 || string(ss[0].Window[1]) != "a" || string(ss[0].Window[2]) != "b" {
		t.Fatalf("outcomes lost across stop: %v", ss)
	}
}

// TestLogSyncFailurePoisons is the fsyncgate test: a failed fsync must
// poison the log — every later Append and Sync fails with the original
// cause — rather than let a retry report durability for pages the kernel
// may already have dropped.
func TestLogSyncFailurePoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	boom := errors.New("injected EIO")
	fail := true
	l.syncFn = func(f File) error {
		if fail {
			return boom
		}
		return f.Sync()
	}
	if err := l.Append([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync after injected fsync failure = %v, want wrapped %v", err, boom)
	}
	// The kernel "recovers" — but the log must stay poisoned.
	fail = false
	if err := l.Append([]byte("more")); !errors.Is(err, boom) {
		t.Fatalf("Append on poisoned log = %v, want wrapped %v", err, boom)
	}
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync retry on poisoned log = %v, want wrapped %v", err, boom)
	}
	if err := l.Reset(); !errors.Is(err, boom) {
		t.Fatalf("Reset on poisoned log = %v, want wrapped %v", err, boom)
	}
}

// TestGroupCommitEpochFailureFailsAllWaiters injects an fsync failure into
// the log: every commit parked on the failing epoch must see the
// error, and later commits must keep failing (the log is poisoned, so the
// pipeline can never again claim durability).
func TestGroupCommitEpochFailureFailsAllWaiters(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, 1, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	db.AppendHello(1, 0)
	boom := errors.New("injected EIO")
	db.log.syncFn = func(File) error { return boom }
	db.StartGroupCommit(5 * time.Millisecond)

	const n = 4
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- db.CommitOutcome(1, uint64(i+1), []byte("x"))
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("epoch waiter error = %v, want wrapped %v", err, boom)
		}
	}
	if err := db.CommitOutcome(1, 99, []byte("y")); !errors.Is(err, boom) {
		t.Fatalf("commit after poisoned epoch = %v, want wrapped %v", err, boom)
	}
	db.StopGroupCommit()
}

// TestGroupCommitTornEpochTail is the crash-at-epoch-boundary recovery
// property at the storage layer: for ANY byte-level truncation of the log
// (a torn tail mid-epoch), recovery yields a state where every surviving
// outcome record's effect is present in its shard — the
// outcome-implies-effect invariant cannot be widened by group commit,
// because every epoch's outcome records sit in the log behind the effect
// records they depend on, and a cut only removes a suffix.
func TestGroupCommitTornEpochTail(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, 2, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	db.StartGroupCommit(time.Millisecond)
	db.AppendHello(1, 0)
	const workers, per = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				req := uint64(w*per + i + 1)
				db.ShardBacking(int(req) % 2).Persist(keyFor(req), int64(req))
				if err := db.CommitOutcome(1, req, []byte{byte(req)}); err != nil {
					t.Errorf("CommitOutcome(%d): %v", req, err)
				}
			}
		}(w)
	}
	wg.Wait()
	db.Close()
	if t.Failed() {
		t.Fatal("commit errors above")
	}

	logBytes, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	step := len(logBytes)/12 + 1
	for cut := 0; cut <= len(logBytes); cut += step {
		copyDir := t.TempDir()
		copyTree(t, dir, copyDir)
		if err := os.Truncate(filepath.Join(copyDir, walName), int64(cut)); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(copyDir, 2, 8, 256)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		effects := map[string]int64{}
		for i := 0; i < 2; i++ {
			db2.RangeShard(i, func(k string, v int64) { effects[k] = v })
		}
		for _, s := range db2.Sessions() {
			for req := range s.Window {
				if got, ok := effects[keyFor(req)]; !ok || got != int64(req) {
					t.Fatalf("cut %d: outcome %d recovered without its effect (got %d, present %v)", cut, req, got, ok)
				}
			}
		}
		db2.Close()
	}
}

func keyFor(req uint64) string { return fmt.Sprintf("k%03d", req) }

// copyTree copies the flat data directory src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
