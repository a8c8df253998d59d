// Benchmark harness: one benchmark (family) per experiment row in
// EXPERIMENTS.md. Run with:
//
//	go test -bench=. -benchmem
package detectable_test

import (
	"fmt"
	"sync"
	"testing"

	"detectable/internal/baseline"
	"detectable/internal/benchsuite"
	"detectable/internal/counter"
	"detectable/internal/linearize"
	"detectable/internal/maxreg"
	"detectable/internal/model"
	"detectable/internal/nvm"
	"detectable/internal/perturb"
	"detectable/internal/queue"
	"detectable/internal/rcas"
	"detectable/internal/runtime"
	"detectable/internal/rw"
	"detectable/internal/spec"
)

// --- Sharded KV store: throughput scaling with shard count ---

// BenchmarkShardKV sweeps the shard count under a fixed set of concurrent
// processes hammering a shared key space (3:1 put:get). With one shard all
// processes contend on a single system's space; more shards split the keys
// across independent NVM spaces, so throughput should rise with the count.
// The body lives in internal/benchsuite, shared with cmd/benchjson so the
// BENCH_*.json trajectory records exactly these numbers.
func BenchmarkShardKV(b *testing.B) {
	const procs = 8
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), benchsuite.ShardKV(shards, procs))
	}
}

// BenchmarkShardKVZipf sweeps hot-key skew: a Zipfian chooser
// concentrates 8 processes on a few shared keys of one shard, the regime
// where a locking key table would serialize reads. The body lives in
// internal/benchsuite, shared with cmd/benchjson; the table=lockfree
// suffix keeps the names of earlier trajectory records.
func BenchmarkShardKVZipf(b *testing.B) {
	for _, theta := range []float64{0.9, 1.2} {
		b.Run(fmt.Sprintf("theta=%g/table=lockfree", theta), benchsuite.ShardKVZipf(4, 8, theta))
	}
}

// BenchmarkKeyTableReadZipf isolates the key-table read path itself:
// concurrent Peek streams over Zipfian-drawn keys. Its allocation-free
// read path is pinned by the cmd/benchjson ceilings.
func BenchmarkKeyTableReadZipf(b *testing.B) {
	for _, theta := range []float64{0.9, 1.2} {
		b.Run(fmt.Sprintf("theta=%g/table=lockfree", theta), benchsuite.KeyTableReadZipf(8, theta))
	}
}

// BenchmarkShardKVMultiPut measures the batched write path: one process
// putting 64-entry batches grouped (and fanned out in parallel) across
// the shards.
func BenchmarkShardKVMultiPut(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), benchsuite.ShardKVMultiPut(shards))
	}
}

// BenchmarkServedMultiPut measures the whole served MPUT request path
// (decode, batch fan-out, reply encode, outcome window) via a loopback
// session — the allocation-free serving promise, end to end minus the
// socket.
func BenchmarkServedMultiPut(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), benchsuite.ServedMultiPut(shards))
	}
}

// --- E9: time overhead of detectability (CAS family) ---

func BenchmarkCASDetectable(b *testing.B) {
	sys := runtime.NewSystem(1)
	o := rcas.NewInt(sys, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Cas(0, i, i+1)
	}
}

func BenchmarkCASBaselineSeq(b *testing.B) {
	sys := runtime.NewSystem(1)
	o := baseline.NewSeqCAS(sys, 0, runtime.EncodeInt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Cas(0, i, i+1)
	}
}

func BenchmarkCASPlain(b *testing.B) {
	sys := runtime.NewSystem(1)
	o := baseline.NewPlainCAS(sys, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Cas(0, i, i+1)
	}
}

// BenchmarkCASDetectableContended sweeps the process count on one object
// (body shared with cmd/benchjson via internal/benchsuite; it uses the
// production ring-history configuration).
func BenchmarkCASDetectableContended(b *testing.B) {
	for _, procs := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), benchsuite.CASDetectableContended(procs))
	}
}

// --- E9: time overhead of detectability (register family) ---

func BenchmarkWriteDetectable(b *testing.B) {
	for _, procs := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("N=%d", procs), benchsuite.WriteDetectable(procs))
	}
}

func BenchmarkWriteBaselineSeq(b *testing.B) {
	sys := runtime.NewSystem(8)
	reg := baseline.NewSeqRegister(sys, 0, runtime.EncodeInt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Write(0, i)
	}
}

func BenchmarkWritePlain(b *testing.B) {
	sys := runtime.NewSystem(8)
	reg := baseline.NewPlainRegister(sys, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Write(0, i)
	}
}

func BenchmarkReadDetectable(b *testing.B) {
	sys := runtime.NewSystem(8)
	reg := rw.NewInt(sys, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Read(0)
	}
}

// --- E5: max register (no auxiliary state) ---

func BenchmarkMaxRegisterWrite(b *testing.B) {
	sys := runtime.NewSystem(4)
	m := maxreg.New(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WriteMax(0, i)
	}
}

func BenchmarkMaxRegisterRead(b *testing.B) {
	for _, procs := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("N=%d", procs), func(b *testing.B) {
			sys := runtime.NewSystem(procs)
			m := maxreg.New(sys)
			m.WriteMax(0, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Read(1)
			}
		})
	}
}

// --- Composed structures (E1/E2 applications) ---

func BenchmarkQueueEnqDeq(b *testing.B) {
	sys := runtime.NewSystem(2)
	q := queue.New(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enq(0, i)
		q.Deq(1)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	sys := runtime.NewSystem(1)
	c := counter.New(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc(0)
	}
}

// --- Recovery cost: one planned crash plus the recovery pass ---

func BenchmarkRecoveryCAS(b *testing.B) {
	sys := runtime.NewSystem(1)
	o := rcas.NewInt(sys, 0)
	cur := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := o.Cas(0, cur, cur+1, nvm.CrashAtStep(8))
		if out.Status.Linearized() && out.Resp {
			cur++
		}
	}
}

func BenchmarkRecoveryWrite(b *testing.B) {
	sys := runtime.NewSystem(1)
	reg := rw.NewInt(sys, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Write(0, i, nvm.CrashAtStep(11))
	}
}

// --- E8: shared-cache model overhead (flush-after-write transformation) ---

func BenchmarkSharedCacheOverhead(b *testing.B) {
	models := map[string]nvm.Model{
		"private-cache":      nvm.ModelPrivateCache,
		"shared-cache+flush": nvm.ModelSharedCacheAuto,
	}
	for name, m := range models {
		b.Run(name, func(b *testing.B) {
			sys := runtime.NewSystemModel(1, m)
			o := rcas.NewInt(sys, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Cas(0, i, i+1)
			}
		})
	}
}

// --- E3: Theorem 1 configuration-space exploration ---

func BenchmarkConfigSpace(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := model.ConfigCount(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E4: Theorem 2 exhaustive check (with auxiliary state, clean) ---

func BenchmarkExhaustiveDetectabilityCheck(b *testing.B) {
	m := &model.CASMachine{
		N:          2,
		Scripts:    [][]model.OpCAS{{{Old: 0, New: 1}}, {{Old: 0, New: 1}}},
		MaxCrashes: 2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := model.CheckCAS(m, 1<<22); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: doubly-perturbing witness search ---

func BenchmarkPerturbSearch(b *testing.B) {
	objs := []spec.Object{spec.Register{}, spec.CAS{}, spec.Queue{}, spec.MaxRegister{}}
	for _, obj := range objs {
		b.Run(obj.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				perturb.FindDoublyPerturbing(obj, 2, 4)
			}
		})
	}
}

// --- Checker cost (infrastructure) ---

func BenchmarkLinearizeCheck(b *testing.B) {
	// A fixed 18-operation concurrent register history.
	sys := runtime.NewSystem(3)
	reg := rw.NewInt(sys, 0)
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if i%2 == 0 {
					reg.Write(pid, pid*10+i)
				} else {
					reg.Read(pid)
				}
			}
		}(p)
	}
	wg.Wait()
	recs, _, err := linearize.Collect(sys.Log().Events())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !linearize.Check(spec.Register{}, recs) {
			b.Fatal("history rejected")
		}
	}
}
