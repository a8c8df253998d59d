package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"detectable/internal/runtime"
)

// checker is the model the served run verifies against. Every key has one
// writer session whose values increase, so a key's state is two numbers:
// the highest value whose write was invoked and the highest one that was
// acknowledged. A read is linearizable only if it returns a value between
// the acknowledged mark when it was sent and the invoked mark when its
// reply arrived.
type checker struct {
	names   []string
	invoked []atomic.Int64
	acked   []atomic.Int64

	mu       sync.Mutex
	failures []string
	failed   atomic.Int64
}

func newChecker(names []string) *checker {
	return &checker{
		names:   names,
		invoked: make([]atomic.Int64, len(names)),
		acked:   make([]atomic.Int64, len(names)),
	}
}

// flunk records one failed check; the first few are kept for the report.
func (c *checker) flunk(format string, args ...any) {
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// err summarizes every failed check, or returns nil.
func (c *checker) err() error {
	n := c.failed.Load()
	if n == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Errorf("%w: %d failures, first: %v", errCheck, n, c.failures)
}

// setInitial records that set-up acknowledged initialValue for every key.
func (c *checker) setInitial() {
	for k := range c.acked {
		c.invoked[k].Store(initialValue)
		c.acked[k].Store(initialValue)
	}
}

// beginWrite marks a write's values invoked, before it is sent.
func (c *checker) beginWrite(o *op) {
	for i, k := range o.keys {
		c.invoked[k].Store(int64(o.vals[i]))
	}
}

// endWrite checks a write's verdicts and marks its values acknowledged.
func (c *checker) endWrite(o *op, outs []runtime.Outcome[int]) {
	for i, k := range o.keys {
		if !outs[i].Status.Linearized() {
			c.flunk("PUT %s=%d: verdict %s, want linearized", c.names[k], o.vals[i], outs[i].Status)
			continue
		}
		c.acked[k].Store(int64(o.vals[i]))
	}
}

// readLow snapshots the acknowledged marks of a read's keys before it is
// sent.
func (c *checker) readLow(o *op, low []int64) {
	for i, k := range o.keys {
		low[i] = c.acked[k].Load()
	}
}

// endRead checks a read's verdicts and values against the window
// [acknowledged before send, invoked after reply].
func (c *checker) endRead(o *op, low []int64, outs []runtime.Outcome[int]) {
	for i, k := range o.keys {
		if !outs[i].Status.Linearized() {
			c.flunk("GET %s: verdict %s, want linearized", c.names[k], outs[i].Status)
			continue
		}
		v := int64(outs[i].Resp)
		if hi := c.invoked[k].Load(); v < low[i] || v > hi {
			c.flunk("GET %s = %d, want a value in [%d, %d]", c.names[k], v, low[i], hi)
		}
	}
}

// verifyAll reads every key through read (a batch of key indexes to their
// values) and compares each with its last acknowledged value: the check
// that no acknowledged write was lost. Call it only once every write has
// completed.
func (c *checker) verifyAll(what string, read func(keys []int) ([]int64, error)) error {
	const chunk = 64
	keys := make([]int, 0, chunk)
	bad := 0
	var first []string
	for lo := 0; lo < len(c.names); lo += chunk {
		keys = keys[:0]
		for k := lo; k < lo+chunk && k < len(c.names); k++ {
			keys = append(keys, k)
		}
		vals, err := read(keys)
		if err != nil {
			return fmt.Errorf("%s: reading keys %d..: %w", what, lo, err)
		}
		for i, k := range keys {
			if want := c.acked[k].Load(); vals[i] != want {
				bad++
				if len(first) < 8 {
					first = append(first, fmt.Sprintf("%s = %d, want %d", c.names[k], vals[i], want))
				}
			}
		}
	}
	if bad > 0 {
		c.failed.Add(int64(bad))
		return fmt.Errorf("%w: %s: %d keys differ from their last acknowledged write, first: %v", errCheck, what, bad, first)
	}
	return nil
}
