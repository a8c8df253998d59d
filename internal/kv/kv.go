// Package kv is a recoverable key-value store built from the paper's
// bounded-space detectable read/write registers (internal/rw): one register
// per key, created on first use. It demonstrates composing many detectable
// objects behind one API while keeping per-object space bounded.
//
// Put returns the detectable verdict for the underlying register write, so
// a caller that crashed mid-put knows whether the new value is visible;
// PutRetry re-invokes on fail for always-succeeds semantics (the NRL
// transformation of Section 6).
//
// Key resolution is lock-free: the key → register table is a concurrent
// hash-trie (sync.Map), so the crash-free hot path of an existing key (the
// only path a skewed workload exercises in steady state) takes no lock and
// allocates nothing. Creating a key — its first write, or Restore during
// recovery — is an amortized O(1) insert, so building a store of N keys
// costs O(N). First writes serialize on a creation mutex held only for
// that one insert, which keeps register allocation exactly-once per key.
package kv

import (
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/rw"
)

// Store is an N-process recoverable key-value store with int values.
// Missing keys read as the zero value.
type Store struct {
	sys *runtime.System
	tbl table
}

// New allocates an empty store in sys's memory space.
func New(sys *runtime.System) *Store {
	return &Store{sys: sys}
}

// Put writes key := val as process pid and returns the detectable outcome.
func (s *Store) Put(pid int, key string, val int, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	return s.reg(key).Write(pid, val, plans...)
}

// PutRetry writes key := val, re-invoking on fail verdicts until the write
// is linearized (NRL semantics). It returns the number of invocations.
func (s *Store) PutRetry(pid int, key string, val int) int {
	reg := s.reg(key)
	_, invocations := runtime.ExecuteNRL(s.sys, pid, func() runtime.Op[int] {
		return reg.WriteOp(pid, val)
	})
	return invocations
}

// Del removes key as process pid and returns the detectable outcome.
// Missing keys read as the zero value, so deletion is a detectable write of
// zero to the key's register: it inherits the register's exactly-once
// crash-recovery verdict, and a subsequent Get observes the key as absent.
func (s *Store) Del(pid int, key string, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	return s.Put(pid, key, 0, plans...)
}

// DelRetry removes key, re-invoking on fail verdicts until the deletion is
// linearized (NRL semantics). It returns the number of invocations.
func (s *Store) DelRetry(pid int, key string) int {
	return s.PutRetry(pid, key, 0)
}

// Get reads key as process pid and returns the detectable outcome.
func (s *Store) Get(pid int, key string, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	return s.reg(key).Read(pid, plans...)
}

// PutArmed writes key := val with plan armed on every attempt (body and all
// recovery re-entries), for controlled-scheduler harnesses; see
// runtime.ExecuteArmed.
func (s *Store) PutArmed(pid int, key string, val int, plan nvm.CrashPlan) runtime.Outcome[int] {
	reg := s.reg(key)
	return runtime.ExecuteArmed(s.sys, pid, reg.WriteOp(pid, val), plan)
}

// GetArmed reads key with plan armed on every attempt.
func (s *Store) GetArmed(pid int, key string, plan nvm.CrashPlan) runtime.Outcome[int] {
	return runtime.ExecuteArmed(s.sys, pid, s.reg(key).ReadOp(pid), plan)
}

// Restore installs key with val as its register's initial state without
// executing a recoverable operation: it is the recovery half of a durable
// restart, where the recovered value plays the role a register's initial
// value plays at allocation time (no primitives run, nothing is announced).
// Restoring a key that already has a register panics — recovery must run
// before the store serves operations.
func (s *Store) Restore(key string, val int) {
	s.tbl.restore(key, rw.NewInt(s.sys, val))
}

// Keys returns the keys ever written, sorted, for tests and tooling. It
// holds no lock: keys created concurrently may or may not be included.
func (s *Store) Keys() []string {
	return s.tbl.keys()
}

// Peek returns key's current value without a Ctx, for tests.
func (s *Store) Peek(key string) int {
	reg, ok := s.tbl.lookup(key)
	if !ok {
		return 0
	}
	return reg.PeekTriple().Val
}

// reg returns (creating if needed) the register backing key. Register
// creation is treated as metadata management, not a recoverable operation:
// it allocates NVM cells but performs no primitives. The caller's key may
// alias a transient buffer (the server decodes keys zero-copy out of the
// connection frame), so the table clones every key it stores.
func (s *Store) reg(key string) *rw.Register[int] {
	if reg, ok := s.tbl.lookup(key); ok {
		return reg
	}
	return s.tbl.create(key, func() *rw.Register[int] { return rw.NewInt(s.sys, 0) })
}
