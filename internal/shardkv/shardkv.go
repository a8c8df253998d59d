// Package shardkv composes the paper's single-object detectable primitives
// into a hash-partitioned key-value store: S independent shards, each backed
// by its own runtime.System (and therefore its own simulated NVM space,
// failure epoch and history log) and an internal/kv store built from the
// bounded-space detectable registers of Algorithm 1.
//
// The partitioning move mirrors how disaggregated-memory systems scale a
// shared substrate across endpoints: because shards share no memory cells,
// no epoch and no statistics, operations on keys of different shards
// proceed with zero cross-shard contention, while each individual key keeps
// the per-object detectability contract — a caller that crashed mid-write
// learns definitively whether its operation was linearized and can retry
// exactly once.
//
// Crashes are per shard: CrashShard fails a single shard's system-wide
// epoch (interrupting only the operations routed there — the other shards
// keep serving), while Crash storms every shard. Per-shard Stats record
// operations, verdicts, crash interruptions and recoveries.
package shardkv

import (
	goruntime "runtime"
	"sort"

	"detectable/internal/durable"
	"detectable/internal/history"
	"detectable/internal/kv"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
)

// DefaultRingCapacity is the per-shard history ring size production stores
// keep for diagnostics. Each shard is an independent system, so the ring
// holds the last events of that shard only.
const DefaultRingCapacity = 4096

// Option configures a Store at allocation time.
type Option func(*options)

type options struct {
	historyMode history.Mode
	historyCap  int
	parallel    int
	db          *durable.DB
}

// HistoryMode overrides the per-shard history retention. Production stores
// default to a bounded ring (history.ModeRing, DefaultRingCapacity events
// per shard) so the log never serializes or grows without bound;
// verification harnesses pass history.ModeFull to keep complete logs for
// the durable-linearizability checker, and benchmark floors may pass
// history.ModeOff. capacity is the ring size (ignored for the other
// modes; 0 means DefaultRingCapacity).
func HistoryMode(m history.Mode, capacity int) Option {
	return func(o *options) {
		o.historyMode = m
		if capacity > 0 {
			o.historyCap = capacity
		}
	}
}

// Parallel bounds the number of per-shard worker goroutines one batched
// call (MultiGet/MultiPut/MultiPutRetry) may fan out to. The default is
// GOMAXPROCS; 1 serializes batches shard-by-shard as before. Parallelism
// never splits one shard's group: a batch runs at most one goroutine per
// shard, preserving the one-operation-at-a-time-per-process rule inside
// each shard's system.
func Parallel(n int) Option {
	return func(o *options) {
		if n >= 1 {
			o.parallel = n
		}
	}
}

// Durable backs every shard's space with one shard log of db (making the
// space a file-backed persistent space: linearized mutations are journaled
// at verdict time) and restores each shard's recovered state before the
// store serves its first operation. db's geometry must match the store's
// shard count; durable.Open enforces it against the data directory's
// manifest, and New panics on a mismatched db.
func Durable(db *durable.DB) Option {
	return func(o *options) { o.db = db }
}

// shard is one independent failure domain: a private system plus the
// detectable kv store allocated in it.
type shard struct {
	sys   *runtime.System
	store *kv.Store
	stats Stats
}

// journal records a linearized mutation's persisted value with the shard
// space's backing store — a no-op on heap-backed shards. It runs at
// verdict time: after this call the value is queued for the shard's next
// durability barrier (the server's CommitOutcome syncs it before the
// verdict is released to a client).
func (sh *shard) journal(out runtime.Outcome[int], key string, val int) {
	if out.Status.Linearized() {
		sh.sys.Space().Journal(key, int64(val))
	}
}

// get/put/del run one detectable operation on this shard and record it.
// The batched API calls these directly with the already-resolved shard, so
// keys are hashed once per batch entry.
func (sh *shard) get(pid int, key string, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	out := sh.store.Get(pid, key, plans...)
	sh.stats.note(pid, opGet, outcomeOf(out.Status), out.Crashes)
	return out
}

func (sh *shard) put(pid int, key string, val int, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	out := sh.store.Put(pid, key, val, plans...)
	sh.journal(out, key, val)
	sh.stats.note(pid, opPut, outcomeOf(out.Status), out.Crashes)
	return out
}

func (sh *shard) del(pid int, key string, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	out := sh.store.Del(pid, key, plans...)
	sh.journal(out, key, 0)
	sh.stats.note(pid, opDel, outcomeOf(out.Status), out.Crashes)
	return out
}

// putRetry re-invokes put until it linearizes (NRL semantics: a fresh
// invocation per fail verdict), recording every attempt, and returns the
// number of invocations.
func (sh *shard) putRetry(pid int, key string, val int) int {
	for n := 1; ; n++ {
		if sh.put(pid, key, val).Status.Linearized() {
			sh.stats.noteRetries(pid, n)
			return n
		}
	}
}

// delRetry is putRetry for deletions, so attempts are recorded as dels.
func (sh *shard) delRetry(pid int, key string) int {
	for n := 1; ; n++ {
		if sh.del(pid, key).Status.Linearized() {
			sh.stats.noteRetries(pid, n)
			return n
		}
	}
}

// Store is a hash-partitioned detectable key-value store over S shards,
// each serving up to procs processes. Distinct processes may operate
// concurrently on any mix of shards; a single process must not run two
// operations concurrently (the usual per-process rule of the model).
type Store struct {
	shards   []*shard
	procs    int
	slots    *slotPool
	parallel int
}

// New allocates a store of shards independent partitions, each a fresh
// runtime.System of procs processes under the private-cache model.
func New(shards, procs int, opts ...Option) *Store {
	return NewModel(shards, procs, nvm.ModelPrivateCache, opts...)
}

// NewModel is New with an explicit memory model for every shard's space.
func NewModel(shards, procs int, m nvm.Model, opts ...Option) *Store {
	if shards < 1 {
		panic("shardkv: need at least one shard")
	}
	o := options{
		historyMode: history.ModeRing,
		historyCap:  DefaultRingCapacity,
		parallel:    goruntime.GOMAXPROCS(0),
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.db != nil && o.db.NumShards() != shards {
		panic("shardkv: durable store geometry does not match the shard count")
	}
	s := &Store{procs: procs, slots: newSlotPool(procs), parallel: o.parallel}
	for i := 0; i < shards; i++ {
		sys := runtime.NewSystemModel(procs, m)
		switch o.historyMode {
		case history.ModeRing:
			// Stripe the diagnostic ring by process so a hot shard's
			// appends stop serializing on one ticket (history clamps the
			// stripe count and splits the capacity).
			sys.SetHistory(history.NewShardedRing(o.historyCap, procs))
		case history.ModeOff:
			sys.SetHistory(history.NewOff())
		}
		sh := &shard{sys: sys, store: kv.New(sys)}
		if o.db != nil {
			// Recovery first, backing second: replayed roots are register
			// initial values, not fresh persists to re-journal.
			o.db.RangeShard(i, func(key string, val int64) {
				sh.store.Restore(key, int(val))
			})
			sys.Space().SetBacking(o.db.ShardBacking(i))
		}
		s.shards = append(s.shards, sh)
	}
	return s
}

// NumShards returns the number of partitions.
func (s *Store) NumShards() int { return len(s.shards) }

// Procs returns the per-shard process count.
func (s *Store) Procs() int { return s.procs }

// ShardIndex returns the index of the shard serving key in a store of
// `shards` partitions (FNV-1a of the key modulo the shard count — stable
// across runs, so tests and the load generator can target a specific
// shard). Inlined rather than hash/fnv so the routing decision on every
// operation allocates nothing. Package-level so layers without a Store —
// a standby serving reads out of its replicated durable view — route with
// the identical function.
func ShardIndex(key string, shards int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * prime32
	}
	return int(h % uint32(shards))
}

// ShardFor returns the index of the shard serving key.
func (s *Store) ShardFor(key string) int { return ShardIndex(key, len(s.shards)) }

// System returns shard i's runtime system, for tests and tooling.
func (s *Store) System(i int) *runtime.System { return s.shards[i].sys }

// Put writes key := val as process pid on key's shard and returns the
// detectable outcome. plans inject deterministic crashes into that shard
// only.
func (s *Store) Put(pid int, key string, val int, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	return s.shards[s.ShardFor(key)].put(pid, key, val, plans...)
}

// Get reads key as process pid and returns the detectable outcome.
func (s *Store) Get(pid int, key string, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	return s.shards[s.ShardFor(key)].get(pid, key, plans...)
}

// Del removes key as process pid and returns the detectable outcome
// (missing keys read as zero; see kv.Store.Del).
func (s *Store) Del(pid int, key string, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	return s.shards[s.ShardFor(key)].del(pid, key, plans...)
}

// PutArmed writes key := val with plan armed on every attempt of the
// underlying detectable write, for controlled-scheduler harnesses
// (internal/explore drives single-shard stores this way so that every
// primitive of every recovery re-entry is a visible scheduling point).
func (s *Store) PutArmed(pid int, key string, val int, plan nvm.CrashPlan) runtime.Outcome[int] {
	sh := s.shards[s.ShardFor(key)]
	out := sh.store.PutArmed(pid, key, val, plan)
	sh.journal(out, key, val)
	sh.stats.note(pid, opPut, outcomeOf(out.Status), out.Crashes)
	return out
}

// GetArmed reads key with plan armed on every attempt.
func (s *Store) GetArmed(pid int, key string, plan nvm.CrashPlan) runtime.Outcome[int] {
	sh := s.shards[s.ShardFor(key)]
	out := sh.store.GetArmed(pid, key, plan)
	sh.stats.note(pid, opGet, outcomeOf(out.Status), out.Crashes)
	return out
}

// PutRetry writes key := val, re-invoking on fail verdicts until the write
// is linearized (NRL semantics). It returns the number of invocations;
// every invocation is recorded in the shard's stats.
func (s *Store) PutRetry(pid int, key string, val int) int {
	return s.shards[s.ShardFor(key)].putRetry(pid, key, val)
}

// DelRetry removes key with NRL always-succeeds semantics, returning the
// number of invocations.
func (s *Store) DelRetry(pid int, key string) int {
	return s.shards[s.ShardFor(key)].delRetry(pid, key)
}

// GetRetry reads key, re-invoking until a linearized response is obtained
// (a read can only miss its verdict when the crash hit during the
// announcement). It returns the value.
func (s *Store) GetRetry(pid int, key string) int {
	sh := s.shards[s.ShardFor(key)]
	for n := 1; ; n++ {
		out := sh.get(pid, key)
		if out.Status.Linearized() {
			sh.stats.noteRetries(pid, n)
			return out.Resp
		}
	}
}

// CrashShard injects a system-wide crash-failure into shard i alone: every
// operation in flight on that shard panics at its next primitive and runs
// its recovery function, while the other shards keep serving undisturbed.
func (s *Store) CrashShard(i int) {
	s.shards[i].sys.Crash()
	s.shards[i].stats.noteInjected()
}

// Crash storms every shard: a full-cluster failure.
func (s *Store) Crash() {
	for i := range s.shards {
		s.CrashShard(i)
	}
}

// StatsFor returns a snapshot of shard i's counters.
func (s *Store) StatsFor(i int) StatsSnapshot { return s.shards[i].stats.snapshot() }

// Snapshots returns a point-in-time copy of every shard's counters,
// indexed by shard. The network front-end serves these over the wire.
func (s *Store) Snapshots() []StatsSnapshot {
	out := make([]StatsSnapshot, len(s.shards))
	for i := range s.shards {
		out[i] = s.StatsFor(i)
	}
	return out
}

// TotalStats returns the sum of all shards' counters.
func (s *Store) TotalStats() StatsSnapshot {
	var t StatsSnapshot
	for i := range s.shards {
		t = t.Add(s.StatsFor(i))
	}
	return t
}

// Keys returns every key ever written across all shards, sorted.
func (s *Store) Keys() []string {
	var out []string
	for _, sh := range s.shards {
		out = append(out, sh.store.Keys()...)
	}
	sort.Strings(out)
	return out
}

// Peek returns key's current value without a Ctx, for tests.
func (s *Store) Peek(key string) int {
	return s.shards[s.ShardFor(key)].store.Peek(key)
}

// outcomeOf buckets an execution status for stats accounting.
func outcomeOf(st runtime.Status) outcome {
	switch st {
	case runtime.StatusOK:
		return outcomeOK
	case runtime.StatusRecovered:
		return outcomeRecovered
	case runtime.StatusFailed:
		return outcomeFailed
	default:
		return outcomeNotInvoked
	}
}
