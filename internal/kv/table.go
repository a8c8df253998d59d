package kv

import (
	"sort"
	"strings"
	"sync"

	"detectable/internal/rw"
)

// table resolves key → register on every operation. It is a sync.Map,
// which since Go 1.24 is a concurrent hash-trie:
//
//   - The read path — every crash-free Get/Put on an existing key — is a
//     lock-free Load that does not allocate.
//   - Inserting a key is amortized O(1): it adds one leaf to the trie and
//     copies nothing else, so creating N keys (first writes, or Restore
//     during recovery) costs O(N).
//
// A lookup racing a concurrent first write of the same key may miss and
// fall into create, which double-checks under the creation mutex, so
// exactly one register — one set of NVM cells — is ever allocated per key.
type table struct {
	m  sync.Map   // string → *rw.Register[int]
	mu sync.Mutex // serializes register creation (one O(1) insert each)
}

// lookup returns key's register without creating it.
func (t *table) lookup(key string) (*rw.Register[int], bool) {
	v, ok := t.m.Load(key)
	if !ok {
		return nil, false
	}
	return v.(*rw.Register[int]), true
}

// create returns key's register, allocating it via alloc under the
// creation mutex if this is the key's first use. The stored key is cloned:
// callers may pass a transient buffer (see Store.reg).
func (t *table) create(key string, alloc func() *rw.Register[int]) *rw.Register[int] {
	t.mu.Lock()
	defer t.mu.Unlock()
	if reg, ok := t.lookup(key); ok {
		// Lost the creation race: another first writer inserted this key
		// between our lookup miss and taking the mutex.
		return reg
	}
	reg := alloc()
	t.m.Store(strings.Clone(key), reg)
	return reg
}

// restore installs a recovered register and panics if key exists
// (recovery must run before the store serves operations).
func (t *table) restore(key string, reg *rw.Register[int]) {
	if _, loaded := t.m.LoadOrStore(strings.Clone(key), reg); loaded {
		panic("kv: Restore of a key that already has a register")
	}
}

// keys returns every key in the table, sorted. Keys inserted while it runs
// may or may not appear; every key present before the call does.
func (t *table) keys() []string {
	var out []string
	t.m.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	sort.Strings(out)
	return out
}
