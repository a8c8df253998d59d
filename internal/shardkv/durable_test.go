package shardkv

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"detectable/internal/durable"
	"detectable/internal/history"
	"detectable/internal/nvm"
)

func openDB(t *testing.T, dir string, shards, procs int) *durable.DB {
	t.Helper()
	db, err := durable.Open(dir, shards, procs, 8)
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	return db
}

// TestDurableRestoreAcrossReopen writes through a durable store, reopens
// the directory into a fresh store (a simulated whole-process restart) and
// checks every linearized value — including deletions — comes back.
func TestDurableRestoreAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir, 4, 2)
	s := New(4, 2, Durable(db))
	for i := 0; i < 40; i++ {
		if n := s.PutRetry(0, key(t, i), 100+i); n < 1 {
			t.Fatalf("PutRetry returned %d", n)
		}
	}
	s.DelRetry(1, key(t, 3))
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := openDB(t, dir, 4, 2)
	defer db2.Close()
	s2 := New(4, 2, Durable(db2))
	for i := 0; i < 40; i++ {
		want := 100 + i
		if i == 3 {
			want = 0
		}
		if got := s2.GetRetry(0, key(t, i)); got != want {
			t.Fatalf("key %d after restart = %d, want %d", i, got, want)
		}
	}
}

func key(t *testing.T, i int) string {
	t.Helper()
	return "k-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// TestFailedPutNotJournaled injects a crash plan that makes the write fail
// definitively: a fail verdict must leave no durable record, so a restart
// restores the pre-crash value.
func TestFailedPutNotJournaled(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir, 1, 2)
	s := New(1, 2, Durable(db))
	s.PutRetry(0, "k", 7)

	// Sweep crash steps until one yields a definite fail; every fail must
	// leave the durable state at 7.
	failed := false
	for step := uint64(1); step < 20; step++ {
		out := s.Put(0, "k", 999, nvm.CrashAtStep(step))
		if out.Status.Linearized() {
			s.PutRetry(0, "k", 7) // restore the expected value durably
			continue
		}
		failed = true
	}
	if !failed {
		t.Skip("no crash step produced a definite fail for this schedule")
	}
	db.Sync()
	db.Close()

	db2 := openDB(t, dir, 1, 2)
	defer db2.Close()
	s2 := New(1, 2, Durable(db2))
	if got := s2.GetRetry(0, "k"); got != 7 {
		t.Fatalf("failed put leaked into durable state: got %d, want 7", got)
	}
}

// TestDurableGeometryMismatchPanics pins the guard between a durable DB
// and a store of a different shard count.
func TestDurableGeometryMismatchPanics(t *testing.T) {
	db := openDB(t, t.TempDir(), 2, 2)
	defer db.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("New with mismatched durable geometry did not panic")
		}
	}()
	New(4, 2, Durable(db))
}

func TestLeaseProc(t *testing.T) {
	s := New(1, 4)
	if !s.LeaseProc(2) {
		t.Fatal("leasing free pid 2 failed")
	}
	if s.LeaseProc(2) {
		t.Fatal("double lease of pid 2 succeeded")
	}
	if s.LeaseProc(-1) || s.LeaseProc(4) {
		t.Fatal("out-of-range lease succeeded")
	}
	if s.FreeSlots() != 3 {
		t.Fatalf("FreeSlots = %d, want 3", s.FreeSlots())
	}
	// The leased pid must not be handed out by AcquireProc.
	seen := map[int]bool{}
	for {
		pid, ok := s.AcquireProc()
		if !ok {
			break
		}
		if pid == 2 {
			t.Fatal("AcquireProc handed out the leased pid")
		}
		seen[pid] = true
	}
	if len(seen) != 3 {
		t.Fatalf("acquired %d pids, want 3", len(seen))
	}
	s.ReleaseProc(2)
	if _, ok := s.AcquireProc(); !ok {
		t.Fatal("released pid not acquirable")
	}
}

// TestRestoreIsLinear: restoring a durable store through New must cost
// the same heap bytes per recovered key at 16k keys as at 1k. A key table
// that copies itself on every Restore allocates O(keys) per key, making
// recovery quadratic; that fails this check by an order of magnitude.
func TestRestoreIsLinear(t *testing.T) {
	base := restoreBytes(t, 0)
	small := (restoreBytes(t, 1<<10) - base) / (1 << 10)
	large := (restoreBytes(t, 1<<14) - base) / (1 << 14)
	t.Logf("restore bytes/key: %.0f at 1k keys, %.0f at 16k keys", small, large)
	if ratio := large / small; ratio > 1.5 {
		t.Fatalf("Restore costs %.0f B/key at 16k keys vs %.0f at 1k (ratio %.2f > 1.5): recovery is not linear",
			large, small, ratio)
	}
}

// restoreBytes writes n keys to a fresh durable directory, reopens it and
// returns the heap bytes New allocates to restore them.
func restoreBytes(t *testing.T, n int) float64 {
	t.Helper()
	const shards, procs = 4, 2
	dir := t.TempDir()
	db := openDB(t, dir, shards, procs)
	s := New(shards, procs, Durable(db), HistoryMode(history.ModeOff, 0))
	entries := make([]KV, 0, 256)
	for i := 0; i < n; i += cap(entries) {
		entries = entries[:0]
		for j := i; j < n && j < i+cap(entries); j++ {
			entries = append(entries, KV{Key: fmt.Sprintf("key-%d", j), Val: j + 1})
		}
		s.MultiPutRetry(0, entries)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db = openDB(t, dir, shards, procs)
	defer db.Close()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	s = New(shards, procs, Durable(db), HistoryMode(history.ModeOff, 0))
	goruntime.ReadMemStats(&after)
	if got := len(s.Keys()); got != n {
		t.Fatalf("restored %d keys, want %d", got, n)
	}
	return float64(after.TotalAlloc - before.TotalAlloc)
}
