package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"strconv"

	"detectable/internal/workload"
)

// spec is one workload: its key space, read share, batch size, key
// distribution and the offered rate of its paced phase. Why each exists is
// recorded beside its name in BENCHMARK.json.
type spec struct {
	name   string
	keys   int     // key-space size; every key is written during set-up
	getPct int     // share of requests that read, in percent
	batch  int     // keys per MGET/MPUT request; 0 = single-key GET/PUT
	theta  float64 // Zipf exponent of the key draw; 0 = uniform
	rate   float64 // paced-phase offered requests/s over all sessions
	trials int     // served trials per run
}

// A served trial of a 16,384-key workload spends about 11 s in set-up and
// restart; mput-batch's take milliseconds, and its figures are the most
// fsync-bound (five fsyncs per epoch on each node), so it runs twice the
// trials and still finishes first.
//
// Paced rates, from closed-loop capacities measured on a 2-vCPU box with
// the data directories on its virtual disk: put-uniform's capacity moved
// between 1,200 and 1,600 req/s, and at 800 a slow trial's paced queue ran
// away, so it runs at 400, about a third of the lowest. mput-batch's capacity moved between 400
// and 1,600 req/s from run to run, and at half its median the paced queue
// ran away whenever the disk slowed, so it runs at 400. get-zipf's
// capacity is about 14,500 req/s, but at half of it each session spends a
// quarter of its time behind its own fsync-gated writes and the p50
// measures the disk, not the read path the workload exists for; at 2,000
// req/s a session is blocked about 7% of the time.
var workloads = []spec{
	{name: "put-uniform", keys: 16384, getPct: 10, rate: 400, trials: 3},
	{name: "mput-batch", keys: 256, getPct: 50, batch: 16, rate: 400, trials: 6},
	{name: "get-zipf", keys: 16384, getPct: 95, theta: 0.99, rate: 2000, trials: 3},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// keyName is the wire key of key index k.
func keyName(k int) string { return "bench-" + strconv.Itoa(k) }

// keyNames precomputes every key's wire name, so the generators hand the
// program strings without allocating per op.
func keyNames(n int) []string {
	out := make([]string, n)
	for k := range out {
		out[k] = keyName(k)
	}
	return out
}

// initialValue is what set-up writes to every key; each later write of a
// key stores the next integer, so values order a key's writes.
const initialValue = 1

// op is one generated request: a read or a write of one key (batch 0) or
// of batch distinct keys. vals[i] is the value written to keys[i].
type op struct {
	read bool
	keys []int
	vals []int
}

// stream is one session's seeded op generator. Keys are partitioned by
// writer: session s writes only keys k with k mod sessions == s, so every
// key has one writer and its values increase; reads draw from the whole
// key space.
type stream struct {
	w      spec
	sess   int
	rng    *rand.Rand
	zipf   *workload.Zipf
	last   map[int]int // last value this session generated per owned key
	keyBuf []int
	valBuf []int
	seen   map[int]bool
}

func newStream(w spec, seed int64, sess int) *stream {
	rng := rand.New(rand.NewSource(workload.WorkerSeed(seed, sessions, sess)))
	st := &stream{w: w, sess: sess, rng: rng, last: make(map[int]int), seen: make(map[int]bool)}
	if w.theta > 0 {
		st.zipf = workload.NewZipf(rng, w.keys, w.theta)
	}
	n := max(w.batch, 1)
	st.keyBuf = make([]int, n)
	st.valBuf = make([]int, n)
	return st
}

// draw returns a key index from the workload's distribution.
func (st *stream) draw() int {
	if st.zipf != nil {
		return st.zipf.Next()
	}
	return st.rng.Intn(st.w.keys)
}

// owned maps a drawn key onto this session's partition, keeping the draw's
// neighbourhood (and so the distribution's shape over key pairs).
func (st *stream) owned(k int) int {
	k = k - k%sessions + st.sess
	if k >= st.w.keys {
		k -= sessions
	}
	return k
}

// next fills o with the session's next request. o's slices alias the
// stream's buffers and are valid until the next call.
func (st *stream) next(o *op) {
	n := max(st.w.batch, 1)
	o.read = st.rng.Intn(100) < st.w.getPct
	o.keys = st.keyBuf[:n]
	o.vals = st.valBuf[:0]
	clear(st.seen)
	for i := 0; i < n; i++ {
		for {
			k := st.draw()
			if !o.read {
				k = st.owned(k)
			}
			if !st.seen[k] {
				st.seen[k] = true
				o.keys[i] = k
				break
			}
		}
	}
	if o.read {
		return
	}
	o.vals = st.valBuf[:n]
	for i, k := range o.keys {
		v, ok := st.last[k]
		if !ok {
			v = initialValue
		}
		v++
		st.last[k] = v
		o.vals[i] = v
	}
}

// streamHash digests the first n ops of every session's stream for seed:
// the determinism check compares it across generations.
func streamHash(w spec, seed int64, n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for s := 0; s < sessions; s++ {
		st := newStream(w, seed, s)
		var o op
		for i := 0; i < n; i++ {
			st.next(&o)
			if o.read {
				h.Write([]byte{'r'})
			} else {
				h.Write([]byte{'w'})
			}
			for j, k := range o.keys {
				binary.BigEndian.PutUint64(b[:], uint64(k))
				h.Write(b[:])
				if !o.read {
					binary.BigEndian.PutUint64(b[:], uint64(o.vals[j]))
					h.Write(b[:])
				}
			}
		}
	}
	return h.Sum64()
}
