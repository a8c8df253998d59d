package durable

// Mutation hooks, following the internal/rcas / internal/rw / internal/queue
// pattern: each deliberately breaks one step whose necessity the durability
// argument depends on, so the crash-prefix sweep (internal/simio) can prove
// it actually detects the bug class it exists for. Production code never
// sets them; cmd/simsweep -mutant and the mutation tests do.

// MutantOutcomeFirst inverts the commit protocol's byte order: a commit's
// outcome records are framed into the log ahead of the effect records they
// depend on, with a barrier between them. A crash between the two
// barriers leaves a durable verdict whose write is gone — on recovery the
// client would be promised an effect the store lost, the exact violation
// that "effects before outcomes in one log" rules out. The simio sweep
// must catch this within its crash-point enumeration.
var MutantOutcomeFirst bool

// unstage removes and returns the framed records staged since the last
// Sync (the mutant's held-back effects).
func (l *Log) unstage() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	held := append([]byte(nil), l.buf...)
	l.buf = l.buf[:0]
	return held
}

// restage puts framed records back ahead of anything staged since.
func (l *Log) restage(held []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(held, l.buf...)
}
