package kv

import (
	"fmt"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"detectable/internal/history"
	"detectable/internal/runtime"
)

// TestCreateRace: concurrent first-writers of the same key must resolve to
// exactly one register (the creation mutex double-checks, so no NVM cells
// are spent on a lost race), and concurrent creators of distinct keys must
// all be retained.
func TestCreateRace(t *testing.T) {
	const procs = 8
	ref := New(runtime.NewSystem(procs))
	ref.Put(0, "one", 1)
	cellsPerKey := ref.sys.Space().CellCount()

	sys := runtime.NewSystem(procs)
	s := New(sys)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.PutRetry(pid, "shared", pid*1000+i)
				s.PutRetry(pid, fmt.Sprintf("own-%d-%d", pid, i), i)
			}
		}(p)
	}
	wg.Wait()
	if got := len(s.Keys()); got != 1+procs*50 {
		t.Fatalf("retained %d keys, want %d", got, 1+procs*50)
	}
	r1, ok1 := s.tbl.lookup("shared")
	r2, ok2 := s.tbl.lookup("shared")
	if !ok1 || !ok2 || r1 != r2 {
		t.Fatalf("shared key resolved to distinct registers")
	}
	if got, want := sys.Space().CellCount(), cellsPerKey*(1+procs*50); got != want {
		t.Fatalf("space holds %d cells, want %d: a register was allocated more than once", got, want)
	}
	for p := 0; p < procs; p++ {
		if got := s.Peek(fmt.Sprintf("own-%d-49", p)); got != 49 {
			t.Fatalf("own-%d-49 = %d, want 49", p, got)
		}
	}
}

// TestKeysSortedUnderConcurrentCreators: while creators insert distinct
// keys, every Keys() result must be sorted and must contain every key
// whose creation had returned before the call began; once the creators
// finish, Keys() must hold exactly the created keys.
func TestKeysSortedUnderConcurrentCreators(t *testing.T) {
	const creators, perCreator = 4, 200
	sys := runtime.NewSystem(creators)
	s := New(sys)
	var done [creators]atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < creators; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < perCreator; i++ {
				s.Put(pid, fmt.Sprintf("c%d-%04d", pid, i), i)
				done[pid].Store(int64(i + 1))
			}
		}(p)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()

	check := func() {
		var created [creators]int64
		for p := range created {
			created[p] = done[p].Load()
		}
		keys := s.Keys()
		if !sort.StringsAreSorted(keys) {
			t.Fatalf("Keys() not sorted: %v", keys)
		}
		have := make(map[string]bool, len(keys))
		for _, k := range keys {
			have[k] = true
		}
		for p := range created {
			for i := int64(0); i < created[p]; i++ {
				if k := fmt.Sprintf("c%d-%04d", p, i); !have[k] {
					t.Fatalf("Keys() missing %s, created before the call", k)
				}
			}
		}
	}
	for running := true; running; {
		select {
		case <-finished:
			running = false
		default:
		}
		check()
	}
	if got := len(s.Keys()); got != creators*perCreator {
		t.Fatalf("Keys() holds %d keys, want %d", got, creators*perCreator)
	}
}

// TestRestorePanicsOnExistingKey pins the recovery contract: Restore must
// refuse a key that already has a register. The subtest keeps the name it
// had when the store's table was copy-on-write, so its results stay
// comparable across versions; it runs the one table New builds.
func TestRestorePanicsOnExistingKey(t *testing.T) {
	t.Run("cow", func(t *testing.T) {
		sys := runtime.NewSystem(1)
		s := New(sys)
		s.Restore("k", 7)
		if got := s.Peek("k"); got != 7 {
			t.Fatalf("restored k = %d, want 7", got)
		}
		defer func() {
			if recover() == nil {
				t.Fatalf("second Restore of k did not panic")
			}
		}()
		s.Restore("k", 8)
	})
}

// TestKeyCreationIsLinear: the bytes one first write allocates must not
// grow with the number of keys already in the table. A table that copies
// itself on every insert allocates O(keys) per first write and fails this
// by a factor of ~60. Bytes, not time, so the check does not flake.
func TestKeyCreationIsLinear(t *testing.T) {
	small := firstPutBytes(t, 1<<10)
	large := firstPutBytes(t, 1<<16)
	t.Logf("first-put bytes/key: %.0f at 1k keys, %.0f at 64k keys", small, large)
	if ratio := large / small; ratio > 1.5 {
		t.Fatalf("first put costs %.0f B/key at 64k keys vs %.0f at 1k (ratio %.2f > 1.5): key creation is not O(1)",
			large, small, ratio)
	}
}

// firstPutBytes restores existing keys, then returns the heap bytes
// allocated per first write of 256 new keys.
func firstPutBytes(t *testing.T, existing int) float64 {
	t.Helper()
	const fresh = 256
	sys := runtime.NewSystem(1)
	sys.SetHistory(history.NewOff())
	s := New(sys)
	for i := 0; i < existing; i++ {
		s.Restore(fmt.Sprintf("old-%d", i), i)
	}
	keys := make([]string, fresh)
	for i := range keys {
		keys[i] = fmt.Sprintf("new-%d", i)
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for _, k := range keys {
		s.Put(0, k, 1)
	}
	goruntime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / fresh
}

// TestAllocPinLookup: resolving an existing key is a lock-free hash-trie
// load — zero allocations. This is the kv-layer half of the crash-free Get
// pin benchjson gates in CI.
func TestAllocPinLookup(t *testing.T) {
	sys := runtime.NewSystem(1)
	s := New(sys)
	s.Put(0, "hot", 1)
	if allocs := testing.AllocsPerRun(500, func() {
		if _, ok := s.tbl.lookup("hot"); !ok {
			t.Fatal("hot key missing")
		}
	}); allocs != 0 {
		t.Fatalf("lookup allocates %v/op, want 0", allocs)
	}
}
