package durable

// Primary/backup replication over the durable layer (docs/REPLICATION.md).
//
// The primary taps every record it appends to its log — shard puts as they
// are journaled, session and outcome records as a commit appends them —
// into per-subscriber buffers, in log order, and marks each fsync boundary
// with a barrier message carrying a monotone sequence number. A
// synchronous subscriber gates verdict release: the commit paths
// (AppendHello, NoteSID, AppendEnd, CommitOutcome, and the group-commit
// epoch anchor) wait for the backup to acknowledge the barrier before
// returning, so group commit and replication share one fsync
// boundary — an epoch's verdicts are released only after that epoch is
// durable on both nodes. A subscriber that stalls past the ack timeout is
// dropped and its waiters released (replication degrades; durability on the
// primary is never weakened).
//
// A new subscriber first receives a fuzzy snapshot — the records a
// compaction snapshot would hold: every shard's puts in sorted key order,
// then the sessions — bracketed by SnapBegin / SnapEnd, then the live
// tap. Puts are last-wins and session records idempotent, so applying the
// snapshot over any backup prefix converges;
// SnapEnd doubles as the reconciliation point for sessions the backup saw
// end while it was disconnected (snapshots can only assert liveness, never
// deletion). Snapshot bytes are exempt from the subscriber's backlog
// limit (bootstrap must work for states larger than the limit), and a
// syncAck subscription starts gating commits only once its SnapEnd is
// acked — until then the bootstrapping replica neither delays verdicts
// nor counts as a laggard.
//
// The apply side (Replica) keeps the backup's own disk crash-consistent by
// appending every record to its own log in stream order — which is the
// primary's log order, effects before the outcomes that depend on them —
// and anchoring each barrier with one Sync. A crash-prefix image of the
// backup's data directory therefore satisfies the same
// outcome-implies-effect invariant as the primary's, which internal/simio
// checks byte-for-byte.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Replication stream message kinds. Each message travels as one
// u32-length-prefixed frame: kind byte, then the body.
const (
	// ReplSnapBegin opens a snapshot: u64 generation, u32 shards,
	// u32 procs, u32 window. The backup verifies geometry and fencing
	// before applying anything.
	ReplSnapBegin byte = 0x01
	// ReplRec is one raw log record exactly as it sits in the primary's
	// log (a shard-tagged put, or a hello, outcome, end or next-sid
	// record). Kind 0x03 is retired and refused.
	ReplRec byte = 0x02
	// ReplSnapEnd closes a snapshot: u64 barrier sequence. It is itself a
	// barrier, and the point where the backup ends live sessions absent
	// from the snapshot.
	ReplSnapEnd byte = 0x04
	// ReplBarrier marks one primary fsync boundary: u64 sequence.
	ReplBarrier byte = 0x05
	// ReplAck flows backup→primary: u64 sequence, acknowledging that
	// every record up to that barrier is durable on the backup.
	ReplAck byte = 0x06
)

// DefaultReplSubLimit bounds a subscriber's pending live-tap backlog; a
// backup that falls further behind than this is dropped rather than
// stalling the primary's memory. Bytes staged by the initial fuzzy
// snapshot are exempt — the snapshot is as large as the state and must
// always fit, or replication could never bootstrap past the limit.
const DefaultReplSubLimit = 64 << 20

// DefaultReplAckTimeout bounds how long a commit waits for a synchronous
// subscriber's barrier ack before dropping it and degrading to
// unreplicated operation.
const DefaultReplAckTimeout = 10 * time.Second

// ErrStalePrimary is returned (wrapped) by Replica.Apply when the primary
// announces a generation below the replica's own: the replica has been
// promoted past that primary and must never accept its stream.
var ErrStalePrimary = errors.New("durable: primary generation is behind this replica (fenced)")

var errReplSubClosed = errors.New("durable: replication subscription closed")

// replState is the primary-side replication hub embedded in DB.
type replState struct {
	nsubs      atomic.Int32  // registered subscribers (fast-path gate for taps)
	nsync      atomic.Int32  // gating subscribers: sync subs whose snapshot barrier is acked
	seq        atomic.Uint64 // barrier sequence; bumped only under DB.mu
	ackTimeout atomic.Int64  // nanoseconds; 0 = DefaultReplAckTimeout

	mu   sync.Mutex
	subs map[*ReplSub]struct{}
}

// ReplSub is one replication subscription: a buffer of framed stream
// messages the serving goroutine drains with Next, and the ack high-water
// mark the backup raises with Ack.
type ReplSub struct {
	r       *replState
	syncAck bool
	limit   int

	mu        sync.Mutex
	cond      *sync.Cond
	buf       []byte // pending framed messages
	spare     []byte // the buffer Next handed out last time, recycled
	snapBytes int    // bytes of buf staged by the snapshot, exempt from limit
	snapSeq   uint64 // barrier sequence of this sub's SnapEnd (0 until staged)
	gating    bool   // syncAck sub whose snapshot barrier is acked; counted in nsync
	acked     uint64
	closed    bool
	err       error
}

// Subscribe registers a replication subscriber and stages a fuzzy snapshot
// of the current state followed by the live record tap. limit bounds the
// pending live-tap backlog (≤ 0 means DefaultReplSubLimit); snapshot bytes
// are exempt, so a state larger than the limit can still bootstrap — the
// snapshot occupies memory only until the serving goroutine drains it.
// With syncAck, commits on this DB wait for the subscriber's barrier acks
// before releasing verdicts — the semi-synchronous mode the server uses —
// but only once the subscriber has acknowledged its snapshot barrier
// (SnapEnd): a replica still transferring or fsyncing its initial snapshot
// neither delays commits nor gets dropped as a laggard. Without syncAck
// the subscription is a passive tap (tests, tooling).
func (db *DB) Subscribe(limit int, syncAck bool) *ReplSub {
	if limit <= 0 {
		limit = DefaultReplSubLimit
	}
	sub := &ReplSub{r: &db.repl, syncAck: syncAck, limit: limit}
	sub.cond = sync.NewCond(&sub.mu)

	r := &db.repl
	r.mu.Lock()
	if r.subs == nil {
		r.subs = make(map[*ReplSub]struct{})
	}
	r.subs[sub] = struct{}{}
	r.nsubs.Add(1)
	// The snapshot header is staged inside the registration lock so no
	// concurrent tap can slot a record ahead of it.
	var hdr [21]byte
	hdr[0] = ReplSnapBegin
	binary.BigEndian.PutUint64(hdr[1:], db.gen.Load())
	binary.BigEndian.PutUint32(hdr[9:], uint32(db.NumShards()))
	binary.BigEndian.PutUint32(hdr[13:], uint32(db.procs))
	binary.BigEndian.PutUint32(hdr[17:], uint32(db.st.window))
	sub.stageSnap(hdr[:], nil)
	r.mu.Unlock()

	// Fuzzy snapshot: the state's records under db.mu. Records tapped
	// before it interleave ahead of the snapshot; puts are last-wins and
	// session records idempotent, so the interleaving converges to the
	// primary's state. Holding db.mu through SnapEnd keeps every live
	// session record out of the gap between the snapshot and its close,
	// where SnapEnd's reconciliation would misread it.
	kind := []byte{ReplRec}
	db.mu.Lock()
	defer db.mu.Unlock()
	err := db.st.emit(func(rec []byte) error {
		if !sub.stageSnap(kind, rec) {
			return errReplSubClosed
		}
		return nil
	})
	if err != nil {
		return sub // closed mid-snapshot; stop staging
	}
	// The snapshot close is a barrier in its own right; its sequence is
	// allocated under db.mu like every other barrier, so barrier order on
	// the stream matches sequence order. Its sequence is also the sub's
	// gating threshold: acking it is what turns a syncAck subscription
	// into a commit gate (Ack).
	seq := r.seq.Add(1)
	var ehdr [9]byte
	ehdr[0] = ReplSnapEnd
	binary.BigEndian.PutUint64(ehdr[1:], seq)
	sub.mu.Lock()
	sub.snapSeq = seq
	sub.mu.Unlock()
	sub.stageSnap(ehdr[:], nil)
	return sub
}

// SetReplAckTimeout overrides how long commits wait for a synchronous
// subscriber's barrier ack before dropping it (0 restores the default).
func (db *DB) SetReplAckTimeout(d time.Duration) { db.repl.ackTimeout.Store(int64(d)) }

// ReplStatus reports the replication high-water marks: the latest barrier
// sequence issued, the lowest sequence acknowledged by every synchronous
// subscriber (0 when there are none), and the subscriber count.
func (db *DB) ReplStatus() (seq, acked uint64, subs int) {
	r := &db.repl
	seq = r.seq.Load()
	r.mu.Lock()
	first := true
	for sub := range r.subs {
		subs++
		if !sub.syncAck {
			continue
		}
		a := sub.ackedSeq()
		if first || a < acked {
			acked = a
			first = false
		}
	}
	r.mu.Unlock()
	if first {
		acked = 0
	}
	return seq, acked, subs
}

// ---- primary-side tap ----

// tapRec stages one log record to every subscriber. Called with db.mu
// held, immediately after the log append succeeds.
func (r *replState) tapRec(rec []byte) {
	if r.nsubs.Load() == 0 {
		return
	}
	r.tapMsg([]byte{ReplRec}, rec)
}

// tapBarrier allocates the next barrier sequence and stages the barrier
// message. Called with db.mu held after a successful log barrier — every
// barrier sequence is allocated under that lock, so the stream order of
// barriers matches sequence order.
func (r *replState) tapBarrier() uint64 {
	seq := r.seq.Add(1)
	if r.nsubs.Load() != 0 {
		var hdr [9]byte
		hdr[0] = ReplBarrier
		binary.BigEndian.PutUint64(hdr[1:], seq)
		r.tapMsg(hdr[:], nil)
	}
	return seq
}

func (r *replState) tapMsg(hdr, rec []byte) {
	r.mu.Lock()
	var dead []*ReplSub
	for sub := range r.subs {
		if !sub.stageMsg(hdr, rec) {
			dead = append(dead, sub)
		}
	}
	for _, sub := range dead {
		r.dropLocked(sub)
	}
	r.mu.Unlock()
}

func (r *replState) dropLocked(sub *ReplSub) {
	if _, ok := r.subs[sub]; !ok {
		return
	}
	delete(r.subs, sub)
	r.nsubs.Add(-1)
	if sub.syncAck && sub.disengage() {
		r.nsync.Add(-1)
	}
}

func (r *replState) unregister(sub *ReplSub) {
	r.mu.Lock()
	r.dropLocked(sub)
	r.mu.Unlock()
}

// waitBarrier blocks until every gating subscriber — a synchronous one
// whose snapshot barrier has been acked — has acknowledged barrier seq,
// the ack timeout passes (the laggard is dropped), or the subscriber
// closes. A sync subscriber still transferring or applying its initial
// snapshot is not waited on: its first ack may legitimately take longer
// than the ack timeout, and dropping it for that would re-bootstrap large
// replicas forever. Called with no DB locks held — commit paths release
// db.mu first, so the backup's ack path can never deadlock against the
// primary's commit path.
func (r *replState) waitBarrier(seq uint64) {
	if r.nsync.Load() == 0 {
		return
	}
	r.mu.Lock()
	var waits []*ReplSub
	for sub := range r.subs {
		if sub.syncAck && sub.isGating() {
			waits = append(waits, sub)
		}
	}
	r.mu.Unlock()
	timeout := time.Duration(r.ackTimeout.Load())
	if timeout == 0 {
		timeout = DefaultReplAckTimeout
	}
	for _, sub := range waits {
		if !sub.awaitAck(seq, timeout) {
			// The backup stalled past the timeout: drop it so one dead
			// replica cannot wedge the primary. Detectability on the
			// primary is unaffected; replication has degraded.
			sub.fail(fmt.Errorf("durable: replication ack for barrier %d timed out after %v", seq, timeout))
		}
	}
}

// ---- subscriber ----

// stageMsg appends one framed message (hdr ++ rec) to the pending buffer.
// Returns false if the subscription is closed or just overflowed. The
// limit applies to the live-tap backlog only: bytes still buffered from
// the snapshot (snapBytes) are not the subscriber's fault for lagging and
// are excluded, or any tap during a larger-than-limit snapshot transfer
// would tear the subscription down.
func (s *ReplSub) stageMsg(hdr, rec []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	n := len(hdr) + len(rec)
	if backlog := len(s.buf) - s.snapBytes; backlog+4+n > s.limit {
		s.closeLocked(fmt.Errorf("durable: replication subscriber fell %d bytes behind (limit %d)", backlog, s.limit))
		return false
	}
	s.stageLocked(hdr, rec)
	return true
}

// stageSnap appends one framed snapshot message, exempt from the backlog
// limit — the snapshot is as large as the state, and closing the
// subscription over it would make bootstrap impossible for any state
// larger than the limit (the replica would resync into the same overflow
// forever). Returns false if the subscription is closed.
func (s *ReplSub) stageSnap(hdr, rec []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.snapBytes += 4 + len(hdr) + len(rec)
	s.stageLocked(hdr, rec)
	return true
}

// stageLocked frames hdr ++ rec into the pending buffer. Called with s.mu
// held.
func (s *ReplSub) stageLocked(hdr, rec []byte) {
	s.buf = binary.BigEndian.AppendUint32(s.buf, uint32(len(hdr)+len(rec)))
	s.buf = append(s.buf, hdr...)
	s.buf = append(s.buf, rec...)
	s.cond.Broadcast()
}

// Next blocks until pending stream bytes are available and returns them
// (a whole number of framed messages, ready to write to the wire as-is).
// The returned slice is valid until the next call. Pending bytes staged
// before a close are still drained; after that Next returns io.EOF for a
// clean close or the failure that tore the subscription down.
func (s *ReplSub) Next() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.buf) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.buf) == 0 {
		if s.err != nil {
			return nil, s.err
		}
		return nil, io.EOF
	}
	out := s.buf
	s.buf = s.spare[:0]
	s.spare = out
	s.snapBytes = 0 // the whole buffer drained, snapshot bytes included
	return out, nil
}

// Ack raises the subscriber's acknowledged barrier sequence, releasing any
// commit waiting on it. The ack that first covers the subscription's
// snapshot barrier (SnapEnd) also engages commit gating: from then on —
// and only then — a syncAck subscription counts toward nsync, so a
// replica still bootstrapping never stalls (or gets dropped by) the
// primary's commits.
func (s *ReplSub) Ack(seq uint64) {
	s.mu.Lock()
	if seq > s.acked {
		s.acked = seq
		s.cond.Broadcast()
	}
	if s.syncAck && !s.gating && !s.closed && s.snapSeq != 0 && s.acked >= s.snapSeq {
		// closeLocked always precedes unregistration, so engaging here
		// (under s.mu, on a live sub) pairs exactly once with the
		// disengage in dropLocked.
		s.gating = true
		s.r.nsync.Add(1)
	}
	s.mu.Unlock()
}

// SnapSeq returns the barrier sequence of the subscription's snapshot
// close (SnapEnd) — the ack that engages commit gating — or 0 if the
// snapshot was never fully staged.
func (s *ReplSub) SnapSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapSeq
}

// isGating reports whether this subscription currently gates commits.
func (s *ReplSub) isGating() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gating
}

// disengage clears gating, returning whether it was engaged. Called from
// dropLocked (r.mu held; r.mu → s.mu is the tap path's lock order).
func (s *ReplSub) disengage() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.gating
	s.gating = false
	return g
}

func (s *ReplSub) ackedSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

// awaitAck waits until acked ≥ seq or the timeout elapses. Returns whether
// the ack arrived (a closed subscription counts only if it acked first).
func (s *ReplSub) awaitAck(seq uint64, timeout time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.acked >= seq {
		return true
	}
	expired := false
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		expired = true
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	for s.acked < seq && !s.closed && !expired {
		s.cond.Wait()
	}
	return s.acked >= seq
}

// Close cleanly tears the subscription down: pending bytes already staged
// remain drainable via Next, no new records are staged, and any commit
// waiting on this subscriber is released.
func (s *ReplSub) Close() {
	s.mu.Lock()
	s.closeLocked(nil)
	s.mu.Unlock()
	s.r.unregister(s)
}

func (s *ReplSub) fail(err error) {
	s.mu.Lock()
	s.closeLocked(err)
	s.mu.Unlock()
	s.r.unregister(s)
}

// closeLocked marks the subscription closed. Called with s.mu held; the
// caller (or the next tap sweep) unregisters it from the hub.
func (s *ReplSub) closeLocked(err error) {
	if s.closed {
		return
	}
	s.closed = true
	if err == nil {
		err = errReplSubClosed
	}
	if s.err == nil && !errors.Is(err, errReplSubClosed) {
		s.err = err
	}
	s.cond.Broadcast()
}

// ---- acks ----

// AppendReplAck appends one encoded ack message for barrier seq to dst.
func AppendReplAck(dst []byte, seq uint64) []byte {
	dst = append(dst, ReplAck)
	return binary.BigEndian.AppendUint64(dst, seq)
}

// ParseReplAck decodes an ack message.
func ParseReplAck(msg []byte) (seq uint64, ok bool) {
	if len(msg) != 9 || msg[0] != ReplAck {
		return 0, false
	}
	return binary.BigEndian.Uint64(msg[1:]), true
}

// ---- generation / fencing ----

// Generation returns the data directory's fencing generation. A freshly
// created directory is generation 0; every promotion advances it.
func (db *DB) Generation() uint64 { return db.gen.Load() }

// SetGeneration durably advances the fencing generation, rewriting the
// MANIFEST atomically. Generations are monotone: lowering one is refused
// (fencing must never roll back).
func (db *DB) SetGeneration(gen uint64) error {
	db.repl.mu.Lock()
	defer db.repl.mu.Unlock()
	cur := db.gen.Load()
	if gen == cur {
		return nil
	}
	if gen < cur {
		return fmt.Errorf("durable: generation may only advance (have %d, asked for %d)", cur, gen)
	}
	if err := writeManifest(db.fs, db.dir, db.NumShards(), db.procs, gen); err != nil {
		return err
	}
	db.gen.Store(gen)
	return nil
}

// ---- replica (apply side) ----

// Replica applies a replication stream to a warm-standby DB. Every record
// is folded into the backup's state and appended to its log as it
// arrives, in stream order; each barrier is anchored with one Sync and
// only then acknowledged. A barrier that arrives during a snapshot is
// deferred to SnapEnd, so an outcome can never be anchored (or acked)
// before the snapshot hello that makes it recoverable.
// Not safe for concurrent use; feed it one stream.
type Replica struct {
	db        *DB
	viewStage []viewPut // shard puts awaiting barrier publication to the read view
	inSnap    bool
	snapSids  map[uint64]struct{} // sessions asserted live by the snapshot in progress
}

// NewReplica returns an applier feeding db. The DB must not be serving —
// it is the warm standby's.
func (db *DB) NewReplica() *Replica { return &Replica{db: db} }

// Apply folds one stream message (a frame payload: kind byte + body) into
// the backup. It returns barrier=true with the barrier's sequence when the
// message completed a durable boundary the backup should acknowledge.
func (rp *Replica) Apply(msg []byte) (seq uint64, barrier bool, err error) {
	if len(msg) < 1 {
		return 0, false, fmt.Errorf("durable: empty replication message")
	}
	body := msg[1:]
	switch msg[0] {
	case ReplSnapBegin:
		if len(body) != 20 {
			return 0, false, fmt.Errorf("durable: malformed SnapBegin")
		}
		gen := binary.BigEndian.Uint64(body)
		shards := int(binary.BigEndian.Uint32(body[8:]))
		procs := int(binary.BigEndian.Uint32(body[12:]))
		window := int(binary.BigEndian.Uint32(body[16:]))
		if shards != rp.db.NumShards() || procs != rp.db.procs || window != rp.db.st.window {
			return 0, false, fmt.Errorf("durable: replication geometry mismatch: primary shards=%d procs=%d window=%d, replica shards=%d procs=%d window=%d",
				shards, procs, window, rp.db.NumShards(), rp.db.procs, rp.db.st.window)
		}
		if cur := rp.db.Generation(); gen < cur {
			return 0, false, fmt.Errorf("%w: primary gen %d < replica gen %d", ErrStalePrimary, gen, cur)
		} else if gen > cur {
			if err := rp.db.SetGeneration(gen); err != nil {
				return 0, false, err
			}
		}
		rp.inSnap = true
		rp.snapSids = make(map[uint64]struct{})
		rp.viewStage = rp.viewStage[:0]
		// The incoming snapshot supersedes the read view; until SnapEnd
		// publishes it, the applied mark is 0 and staleness-bounded readers
		// fall back to the primary rather than read a mid-bootstrap state.
		rp.db.resetView()
		return 0, false, nil

	case ReplRec:
		// applyRec validates before anything changes: a malformed record
		// never reaches the backup's log, where it would poison every
		// future recovery.
		if err := rp.db.applyRec(body); err != nil {
			return 0, false, fmt.Errorf("durable: replicated record: %w", err)
		}
		switch body[0] {
		case recPut:
			// Stage for the read view; published only when the covering
			// barrier is durable here.
			shard, key, val, _ := decodePut(body)
			rp.viewStage = append(rp.viewStage, viewPut{shard: shard, key: string(key), val: val})
		case recHello:
			if rp.inSnap {
				rp.snapSids[binary.BigEndian.Uint64(body[1:])] = struct{}{}
			}
		}
		return 0, false, nil

	case ReplSnapEnd:
		if len(body) != 8 {
			return 0, false, fmt.Errorf("durable: malformed SnapEnd")
		}
		if !rp.inSnap {
			return 0, false, fmt.Errorf("durable: SnapEnd without SnapBegin")
		}
		// Reconcile deletions: a session live on the backup but absent
		// from the snapshot ended while the backup was disconnected.
		// Snapshots can only assert liveness, so the end is synthesized
		// here and anchored with the snapshot.
		var ends []byte
		for _, sid := range rp.db.liveSIDs() {
			if _, ok := rp.snapSids[sid]; !ok {
				ends = stageU64Rec(ends, recEnd, sid)
			}
		}
		rp.inSnap = false
		rp.snapSids = nil
		return rp.barrier(body, ends)

	case ReplBarrier:
		if len(body) != 8 {
			return 0, false, fmt.Errorf("durable: malformed barrier")
		}
		if rp.inSnap {
			// A barrier that interleaves with the snapshot must not anchor
			// (or ack) yet: the records so far may include outcomes whose
			// snapshot hellos are still in flight, which recovery silently
			// drops — a crash-then-promote would lose a verdict the primary
			// released as durable on both nodes. The ack waits for SnapEnd,
			// when the snapshot's hellos have arrived too.
			return 0, false, nil
		}
		return rp.barrier(body, nil)

	default:
		return 0, false, fmt.Errorf("durable: unexpected replication message kind 0x%02x", msg[0])
	}
}

// barrier anchors everything applied so far, plus the staged records in
// ends, with the backup's one commit path, then publishes the barrier's
// shard puts to the read view atomically — a replica GET sees either all
// of a commit epoch's effects or none of them.
func (rp *Replica) barrier(body, ends []byte) (uint64, bool, error) {
	if err := rp.db.anchor(ends); err != nil {
		return 0, false, err
	}
	seq := binary.BigEndian.Uint64(body)
	rp.db.publishView(rp.viewStage, seq)
	rp.viewStage = rp.viewStage[:0]
	return seq, true, nil
}

// applyRec folds one replicated record into the state and appends it to
// the log, refusing a malformed one before anything changes. The backup is
// itself a tappable primary: its own subscribers (a chained replica) see
// the same records and, through anchor, the same barriers.
func (db *DB) applyRec(rec []byte) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.st.apply(rec); err != nil {
		return err
	}
	return db.appendLocked(rec)
}

// liveSIDs returns the sids currently live in the state, sorted.
func (db *DB) liveSIDs() []uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return sortedKeys(db.st.sessions)
}
