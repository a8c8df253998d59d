package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"

	"detectable/internal/shardkv"
)

// Allocation pins for the wire layer: encoding a frame into a warm
// session scratch allocates nothing, and reading frames through a
// session-owned grow-only buffer allocates nothing once the buffer has
// grown to the workload's frame size.

func TestAllocPinAppendEncoders(t *testing.T) {
	buf := make([]byte, 0, 512)
	entries := []shardkv.KV{{Key: "a", Val: 1}, {Key: "b", Val: 2}}
	keys := []string{"a", "b", "c"}
	if allocs := testing.AllocsPerRun(500, func() {
		buf = AppendPut(buf[:0], 9, 0, "pin-key", 42)
		buf = AppendGet(buf[:0], 10, 0, "pin-key")
		buf = AppendMPut(buf[:0], 11, entries)
		buf = AppendMGet(buf[:0], 12, keys)
		buf = AppendStats(buf[:0], 13)
	}); allocs != 0 {
		t.Fatalf("append encoders allocate %v/iteration, want 0", allocs)
	}
}

func TestAllocPinWriteFrameBuffered(t *testing.T) {
	bw := bufio.NewWriter(io.Discard)
	buf := make([]byte, 0, 512)
	if allocs := testing.AllocsPerRun(500, func() {
		buf = AppendPut(buf[:0], 9, 0, "pin-key", 42)
		if err := WriteFrameBuffered(bw, buf); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("encode+write+flush allocates %v/frame, want 0", allocs)
	}
}

func TestAllocPinReadFrameInto(t *testing.T) {
	frame := EncodePut(7, 0, "pin-key", 99)
	var wire bytes.Buffer
	WriteFrame(&wire, frame)
	raw := wire.Bytes()

	buf := make([]byte, 0, 64)
	r := bytes.NewReader(raw)
	if _, err := ReadFrameInto(r, &buf); err != nil { // warm the buffer
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		r.Reset(raw)
		if _, err := ReadFrameInto(r, &buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm ReadFrameInto allocates %v/frame, want 0", allocs)
	}
}

// The reply path: encoding an outcome reply into connection scratch and
// recording it into a warm session window must allocate at most the
// bookkeeping Go's map rehashing occasionally costs — pinned at ≤ 1
// amortized, 0 in the common case.
func TestAllocPinRecordRecyclesWindowEntries(t *testing.T) {
	sess := &session{cache: make(map[uint64][]byte, Window+1)}
	reply := append([]byte{StatusOK}, make([]byte, 12)...)
	reqID := uint64(0)
	// Fill the window so eviction (and recycling) is active.
	for i := 0; i < Window*2; i++ {
		reqID++
		sess.record(reqID, reply)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		reqID++
		sess.record(reqID, reply)
	}); allocs > 1 {
		t.Fatalf("steady-state record allocates %v/op, want ≤ 1", allocs)
	}
}

// The full served MPUT path — header decode, zero-copy key decode, batch
// fan-out, reply encode, window record — allocates nothing once warm. The
// warm-up loop wraps every shard's history ring (each ring slot's args
// buffer allocates on first touch) and settles the window's recycled
// entry buffers. The store fans out to 4 workers, and the pin runs at
// GOMAXPROCS 1 and 4, so the parallel path is measured whatever the
// machine's CPU count.
func TestAllocPinServedMultiPut(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the parallel fan-out path")
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			store := shardkv.New(8, 2, shardkv.Parallel(4))
			srv := New(store)
			ls, err := srv.NewLoopbackSession()
			if err != nil {
				t.Fatal(err)
			}
			defer ls.Close()

			entries := make([]shardkv.KV, 64)
			for i := range entries {
				entries[i] = shardkv.KV{Key: "pin-key-" + string(rune('a'+i%26)) + string(rune('a'+i/26)), Val: i}
			}
			payload := AppendMPut(nil, 0, entries)

			warm := 2*shardkv.DefaultRingCapacity/len(entries)*8 + 2*Window
			for i := 0; i < warm; i++ {
				PatchReqID(payload, ls.NextID())
				if reply := ls.Handle(payload); len(reply) == 0 || reply[0] != StatusOK {
					t.Fatalf("warm-up MPUT reply %v", reply)
				}
			}
			if allocs := testing.AllocsPerRun(200, func() {
				PatchReqID(payload, ls.NextID())
				ls.Handle(payload)
			}); allocs != 0 {
				t.Fatalf("warm served MPUT allocates %v/op, want 0", allocs)
			}
		})
	}
}
