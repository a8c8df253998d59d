package shardkv

import (
	"fmt"
	"runtime"
	"testing"
)

// The allocation pins of the hot-path overhaul: crash-free operations on
// the atomic fast path must not allocate. These are the same promises
// cmd/benchjson -check enforces in CI; a failure here means a change
// reintroduced per-op allocation (an escaping closure, a fresh Ctx, an
// unbounded history append, …).

func TestAllocPinCrashFreeGet(t *testing.T) {
	s := New(4, 2)
	s.PutRetry(0, "pin-key", 7)
	if allocs := testing.AllocsPerRun(500, func() {
		s.Get(0, "pin-key")
	}); allocs != 0 {
		t.Fatalf("crash-free Get allocates %v/op, want 0", allocs)
	}
}

func TestAllocPinCrashFreeGetRetry(t *testing.T) {
	s := New(4, 2)
	s.PutRetry(0, "pin-key", 7)
	if allocs := testing.AllocsPerRun(500, func() {
		s.GetRetry(0, "pin-key")
	}); allocs != 0 {
		t.Fatalf("crash-free GetRetry allocates %v/op, want 0", allocs)
	}
}

// A crash-free Put no longer allocates even the abstract operation's
// argument list: the register reuses a per-process descriptor and the
// history ring copies the args into slot-owned buffers. The warm-up loop
// wraps the shard's history ring so every slot's args buffer exists before
// measuring.
func TestAllocPinCrashFreePut(t *testing.T) {
	s := New(4, 2)
	for i := 0; i < DefaultRingCapacity; i++ {
		s.Put(0, "pin-key", 7)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		s.Put(0, "pin-key", 7)
	}); allocs != 0 {
		t.Fatalf("crash-free Put allocates %v/op, want 0", allocs)
	}
}

// A warm batched put over caller-owned scratch allocates nothing: grouping
// arrays, outcome slice, fan-out workers and history records all reuse
// session- or slot-owned storage. The store fans out to 4 workers, and the
// pin runs at GOMAXPROCS 1 and 4, so the parallel path is measured
// whatever the machine's CPU count.
func TestAllocPinMultiPutWith(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the parallel fan-out path")
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			s := New(8, 2, Parallel(4))
			entries := make([]KV, 64)
			for i := range entries {
				entries[i] = KV{Key: "pin-key-" + string(rune('a'+i%26)) + string(rune('a'+i/26)), Val: i}
			}
			var sc BatchScratch
			for i := 0; i < 2*DefaultRingCapacity/len(entries)*8; i++ {
				s.MultiPutWith(&sc, 0, entries)
			}
			if allocs := testing.AllocsPerRun(200, func() {
				s.MultiPutWith(&sc, 0, entries)
			}); allocs != 0 {
				t.Fatalf("warm MultiPutWith allocates %v/op, want 0", allocs)
			}
		})
	}
}
