// Package server serves the sharded detectable key-value store
// (internal/shardkv) over TCP, preserving detectability across the network
// boundary.
//
// Each client session leases one process slot of the store's N-process
// model, so a remote session IS one process of the paper. The wire
// protocol (wire.go, docs/PROTOCOL.md) is length-prefixed binary frames;
// each request carries a session-scoped, strictly increasing request ID.
// The server executes a request once, records the encoded reply in the
// session's persisted-outcome window, and replays it verbatim when the
// same request ID is re-issued.
//
// That replay rule is the paper's announcement/recovery contract lifted to
// the session layer: a dropped connection is the crash, and a client that
// reconnects and re-issues its in-flight request ID receives the original
// detectable verdict — the operation took effect at most once, and the
// client learns definitively whether it did.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"detectable/internal/durable"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/shardkv"
)

// DefaultIdleTimeout is how long a detached session (no connection) is
// retained for resume before it is reaped and its process slot reclaimed.
// Without reaping, every client that dies without a clean CLOSE would leak
// a slot forever.
const DefaultIdleTimeout = 2 * time.Minute

// Server accepts connections and serves sessions over one shardkv.Store.
//
// The store and durable DB are atomic pointers because a standby server
// (NewStandby) starts with neither and gains both at promotion, while
// connection handlers read them lock-free; on a plain primary they are set
// once before Listen and never change.
type Server struct {
	store atomic.Pointer[shardkv.Store]
	db    atomic.Pointer[durable.DB] // nil without -data: sessions live and die in memory

	standby          atomic.Pointer[standbyState] // non-nil until promotion (replication.go)
	fenced           atomic.Bool                  // demoted primary: only admin ops served
	replicas         atomic.Int64                 // attached replication streams
	recoveredReplays atomic.Uint64                // replays served from a recovered outcome window

	mu          sync.Mutex
	ln          net.Listener
	sessions    map[uint64]*session
	nextSID     uint64
	idleTTL     time.Duration
	closed      bool
	stop        chan struct{}
	wg          sync.WaitGroup
	replStreams map[*durable.ReplSub]net.Conn // live replication streams, torn down by Close
	wasStandby  *standbyState                 // set at promotion; keeps Promote idempotent
}

// New returns a server over store. Call Listen to start serving.
func New(store *shardkv.Store) *Server {
	srv := &Server{
		sessions: make(map[uint64]*session),
		idleTTL:  DefaultIdleTimeout,
		stop:     make(chan struct{}),
	}
	srv.store.Store(store)
	return srv
}

// SetIdleTimeout overrides how long detached sessions are retained for
// resume (0 disables reaping). Call before Listen.
func (srv *Server) SetIdleTimeout(d time.Duration) { srv.idleTTL = d }

// AttachDurable makes the server's session layer durable over db (the same
// DB the store was opened with via shardkv.Durable) and recovers every
// session that was live when the previous process died: each gets its
// process slot back, its outcome window reloaded, and its idle-reap clock
// restarted. Call before Listen. From then on, session creation and every
// released verdict are fsynced through db before the client sees them, so
// a client that reconnects after a whole-process crash and re-issues its
// in-flight request ID receives the original verdict.
func (srv *Server) AttachDurable(db *durable.DB) error {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.ln != nil || len(srv.sessions) > 0 {
		return errors.New("server: AttachDurable must run before Listen")
	}
	if err := srv.recoverSessionsLocked(db, srv.store.Load()); err != nil {
		return err
	}
	if next := db.NextSID(); next > srv.nextSID {
		srv.nextSID = next
	}
	srv.db.Store(db)
	return nil
}

// recoverSessionsLocked rebuilds the session table from db's recovered
// sessions, leasing each one's process slot back from store. Shared by
// AttachDurable (process restart) and promotion (the standby's recovered
// state becomes the serving state). Called with srv.mu held.
func (srv *Server) recoverSessionsLocked(db *durable.DB, store *shardkv.Store) error {
	// Two recovered sessions can claim one slot when an END record was
	// lost (endSession treats END appends as best-effort) and the pid was
	// re-leased before the crash. The newer session (higher SID — Sessions
	// returns ascending order) is the live one; the superseded one is
	// durably ended now rather than refusing to start from our own data.
	byPid := make(map[int]durable.SessionState)
	for _, ss := range db.Sessions() {
		if prev, ok := byPid[ss.PID]; ok {
			db.AppendEnd(prev.SID) //nolint:errcheck // best-effort, same as endSession
		}
		byPid[ss.PID] = ss
	}
	for _, ss := range byPid {
		if !store.LeaseProc(ss.PID) {
			return fmt.Errorf("server: recovered session %d holds process slot %d, which is not free", ss.SID, ss.PID)
		}
		sess := &session{
			id: ss.SID, pid: ss.PID,
			detachedAt:   time.Now(),
			maxID:        ss.MaxID,
			recoveredMax: ss.MaxID,
			cache:        make(map[uint64][]byte, Window+1),
			recovered:    make(map[uint64]struct{}, len(ss.Window)),
		}
		for reqID, reply := range ss.Window {
			sess.cache[reqID] = append([]byte(nil), reply...)
			sess.recovered[reqID] = struct{}{}
		}
		srv.sessions[ss.SID] = sess
	}
	return nil
}

// Store returns the served store, for tests and the daemon's final report.
// Nil on a standby that has not been promoted.
func (srv *Server) Store() *shardkv.Store { return srv.store.Load() }

// RecoveredReplays reports how many replies were served by replaying an
// outcome recovered from the durable window — verdicts that provably
// survived a process death (restart or failover to this node).
func (srv *Server) RecoveredReplays() uint64 { return srv.recoveredReplays.Load() }

// Listen binds addr (e.g. "127.0.0.1:0") and starts the accept loop in the
// background. The bound address is available from Addr.
func (srv *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		ln.Close()
		return errors.New("server: already closed")
	}
	srv.ln = ln
	srv.wg.Add(1)
	srv.mu.Unlock()
	go srv.acceptLoop(ln)
	if srv.idleTTL > 0 {
		srv.wg.Add(1)
		go srv.reapLoop(srv.idleTTL)
	}
	return nil
}

// reapLoop periodically ends sessions that have been detached longer than
// ttl, reclaiming their process slots. A session mid-resume cannot be
// reaped: attaching requires the server lock this loop inspects under.
func (srv *Server) reapLoop(ttl time.Duration) {
	defer srv.wg.Done()
	period := ttl / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-srv.stop:
			return
		case <-tick.C:
		}
		var expired []*session
		srv.mu.Lock()
		now := time.Now()
		for id, sess := range srv.sessions {
			sess.mu.Lock()
			dead := sess.conn == nil && !sess.detachedAt.IsZero() && now.Sub(sess.detachedAt) >= ttl
			sess.mu.Unlock()
			if dead {
				delete(srv.sessions, id)
				expired = append(expired, sess)
			}
		}
		srv.mu.Unlock()
		for _, sess := range expired {
			if !sess.slotless() {
				// The durable END is appended after the session left the
				// table, so a resume that raced past this point was already
				// refused with unknown-session; replication ships the END on
				// the same barrier, so a promoted replica refuses it too —
				// a reaped sid can never come back as a stale session.
				if db := srv.db.Load(); db != nil {
					db.AppendEnd(sess.id) //nolint:errcheck
				}
				srv.store.Load().ReleaseProc(sess.pid)
			}
		}
	}
}

// Addr returns the listener's address, or nil before Listen.
func (srv *Server) Addr() net.Addr {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.ln == nil {
		return nil
	}
	return srv.ln.Addr()
}

// Sessions reports the number of live sessions.
func (srv *Server) Sessions() int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.sessions)
}

// Close stops accepting, kicks every attached connection and waits for the
// handlers to drain. Sessions are discarded; their slots return to the
// store's pool.
func (srv *Server) Close() error {
	srv.mu.Lock()
	if !srv.closed {
		close(srv.stop)
	}
	srv.closed = true
	if srv.ln != nil {
		srv.ln.Close()
	}
	sessions := make([]*session, 0, len(srv.sessions))
	for id, sess := range srv.sessions {
		sessions = append(sessions, sess)
		delete(srv.sessions, id)
	}
	for sub, conn := range srv.replStreams {
		sub.Close()
		conn.Close()
	}
	srv.mu.Unlock()
	for _, sess := range sessions {
		sess.mu.Lock()
		if sess.conn != nil {
			sess.conn.Close()
		}
		sess.mu.Unlock()
		if !sess.slotless() {
			srv.store.Load().ReleaseProc(sess.pid)
		}
	}
	if st := srv.standby.Load(); st != nil {
		st.stopReplication()
	}
	srv.wg.Wait()
	return nil
}

func (srv *Server) acceptLoop(ln net.Listener) {
	defer srv.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // Close closed the listener, or the listener died
		}
		srv.mu.Lock()
		if srv.closed {
			srv.mu.Unlock()
			conn.Close()
			return
		}
		srv.wg.Add(1)
		srv.mu.Unlock()
		go srv.handleConn(conn)
	}
}

// handleConn runs one connection: a HELLO attaching a session, then a
// serial request loop. Protocol errors drop the connection; the session
// (and its outcome window) survives for a future resume.
//
// Buffers are connection-owned and drawn from the shared frame pool:
// frames are read into one grow-only buffer and replies are encoded into
// one scratch buffer, so the steady-state framing path allocates nothing.
// Replies go through a buffered writer that is flushed only when no
// further pipelined request is already buffered, coalescing back-to-back
// replies into a single Write on the connection.
func (srv *Server) handleConn(conn net.Conn) {
	defer srv.wg.Done()
	defer conn.Close()

	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	readBuf := GetFrameBuf()
	defer PutFrameBuf(readBuf)
	scratch := GetFrameBuf()
	defer PutFrameBuf(scratch)

	payload, err := ReadFrameInto(br, readBuf)
	if err != nil {
		return
	}
	r := NewReader(payload)
	if op := r.U8(); op != OpHello {
		WriteFrame(bw, encodeErr(ErrBadRequest, "first frame must be HELLO"))
		bw.Flush()
		return
	}
	sid, flags := r.U64(), r.U8()
	if r.Err || r.Rest() != 0 {
		WriteFrame(bw, encodeErr(ErrBadRequest, "malformed HELLO"))
		bw.Flush()
		return
	}
	if flags&HelloFlagReplica != 0 {
		srv.serveReplication(conn, br, bw)
		return
	}
	sess, gen, reply := srv.attach(conn, sid, flags)
	if err := WriteFrame(bw, reply); err != nil || bw.Flush() != nil || sess == nil {
		return
	}
	defer srv.detach(sess, gen)

	for {
		payload, err := ReadFrameInto(br, readBuf)
		if err != nil {
			return
		}
		reply, closing, fatal := srv.handle(sess, payload, scratch)
		if closing {
			// Release the slot before the ack, so a client that saw its
			// CLOSE acknowledged can lease the slot again at once.
			srv.endSession(sess)
		}
		if err := WriteFrame(bw, reply); err != nil {
			return
		}
		if closing || fatal || br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		if closing {
			return
		}
		if fatal {
			return
		}
	}
}

// attach creates (sid 0) or resumes a session and binds conn to it,
// kicking any connection previously attached. It returns the session (nil
// on error), the attach generation and the HELLO reply.
func (srv *Server) attach(conn net.Conn, sid uint64, flags byte) (*session, uint64, []byte) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.closed {
		return nil, 0, encodeErr(ErrBadRequest, "server shutting down")
	}
	observer := flags&HelloFlagObserver != 0
	readOnly := flags&HelloFlagReadOnly != 0
	if !observer && !readOnly && srv.standby.Load() != nil {
		// A standby serves no data sessions — and critically, a client
		// resuming the old primary's sid here must hear not-primary (try
		// the next address), never unknown-session (fatal to the client):
		// the standby's table does not hold replicated sessions until
		// promotion, so the lookup below could not tell the two apart.
		// Read-only sessions ARE admitted: the standby is a read replica
		// (executeReadOnly serves GETs from the applied view).
		return nil, 0, encodeErr(ErrNotPrimary, "standby: not serving until promoted")
	}
	if !observer && srv.fenced.Load() {
		// Refuses read-only sessions too: a fenced ex-primary's state is
		// frozen at demotion with no lag bound, so reads belong to the
		// promoted node.
		// A fenced ex-primary must neither mint nor resume data sessions:
		// every verdict now belongs to the promoted replica. Minting one
		// here would lease a slot and durably burn a sid that the promoted
		// node has never heard of — the client's first data op would bounce
		// with not-primary and its resume over there would die on
		// unknown-session. Refusing the HELLO itself sends the client to
		// the next failover address before any state is created.
		return nil, 0, encodeErr(ErrNotPrimary, "fenced: this node was demoted")
	}

	if sid == 0 {
		pid := -1
		if !observer && !readOnly {
			p, ok := srv.store.Load().AcquireProc()
			if !ok {
				return nil, 0, encodeErr(ErrSlotsExhausted, "every process slot is leased")
			}
			pid = p
		}
		srv.nextSID++
		sess := &session{
			id: srv.nextSID, pid: pid, observer: observer, readOnly: readOnly,
			conn: conn, gen: 1, cache: make(map[uint64][]byte, Window+1),
		}
		if db := srv.db.Load(); db != nil {
			// The session must be durable before the client learns its ID:
			// a restart may otherwise greet the resume with unknown-session
			// and strand the client's in-flight request. Observer sessions
			// are not recoverable (no slot, no window) but still burn their
			// ID durably, or a restart would reissue it and a stale
			// observer's resume would attach to a stranger's session. On
			// failure the ID stays burned in memory too: the append may
			// have reached the log even when the sync failed, and reusing
			// the ID could durably bind it to two different pids.
			var err error
			if sess.slotless() {
				err = db.NoteSID(sess.id)
			} else {
				err = db.AppendHello(sess.id, pid)
			}
			if err != nil {
				if !sess.slotless() {
					srv.store.Load().ReleaseProc(pid)
				}
				return nil, 0, encodeErr(ErrBadRequest, "durable session record failed")
			}
		}
		srv.sessions[sess.id] = sess
		return sess, 1, appendHelloOK(nil, sess.id, pid, false)
	}

	sess, ok := srv.sessions[sid]
	if !ok {
		return nil, 0, encodeErr(ErrUnknownSession, "no such session")
	}
	sess.mu.Lock()
	if sess.conn != nil {
		sess.conn.Close() // kick the stale connection; its handler detaches as a no-op
	}
	sess.conn = conn
	sess.detachedAt = time.Time{}
	sess.gen++
	gen := sess.gen
	sess.mu.Unlock()
	return sess, gen, appendHelloOK(nil, sess.id, sess.pid, true)
}

// detach clears the session's connection if this handler still owns it,
// starting the idle-reap clock.
func (srv *Server) detach(sess *session, gen uint64) {
	sess.mu.Lock()
	if sess.gen == gen {
		sess.conn = nil
		sess.detachedAt = time.Now()
	}
	sess.mu.Unlock()
}

// endSession removes the session and returns its slot. Idempotent under
// the server lock.
func (srv *Server) endSession(sess *session) {
	srv.mu.Lock()
	_, live := srv.sessions[sess.id]
	delete(srv.sessions, sess.id)
	srv.mu.Unlock()
	if live && !sess.slotless() {
		if db := srv.db.Load(); db != nil {
			// Best-effort: a lost END record only means the session is
			// recovered once more after a restart and reaped by the idle TTL.
			db.AppendEnd(sess.id) //nolint:errcheck
		}
		srv.store.Load().ReleaseProc(sess.pid)
	}
}

// handle processes one request frame under the session lock. The
// classify-execute-record sequence is atomic per session, which is what
// makes a re-issued request ID exactly-once even when a kicked half-dead
// connection races its replacement over the same ID.
//
// Fresh replies are encoded into *scratch (the connection's pooled buffer)
// and remain valid until the next handle call; successful replies are
// copied into the session's outcome window, recycling evicted entries.
// Replayed replies alias the window entry itself.
func (srv *Server) handle(sess *session, payload []byte, scratch *[]byte) (reply []byte, closing, fatal bool) {
	r := NewReader(payload)
	op := r.U8()
	reqID := r.U64()
	if r.Err || reqID == 0 {
		return appendErr((*scratch)[:0], ErrBadRequest, "malformed request header"), false, true
	}
	if op == OpPromote {
		// Promotion is an admin op outside the session's outcome window: it
		// is idempotent by construction (replication.go), so a re-issued ID
		// simply re-executes, and it must not run under sess.mu — promotion
		// takes srv.mu, which attach acquires before session locks.
		if r.Rest() != 0 {
			return appendErr((*scratch)[:0], ErrBadRequest, "malformed PROMOTE"), false, true
		}
		gen, err := srv.Promote()
		if err != nil {
			return appendErr((*scratch)[:0], ErrBadRequest, "promotion failed: "+err.Error()), false, false
		}
		reply = append((*scratch)[:0], StatusOK)
		reply = binary.BigEndian.AppendUint64(reply, gen)
		if cap(reply) > cap(*scratch) {
			*scratch = reply
		}
		return reply, false, false
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()

	if cached, class := sess.classify(reqID); class == idReplay {
		if _, ok := sess.recovered[reqID]; ok {
			// This verdict crossed a process boundary: recovered from the
			// durable window (restart, or a promoted replica's shipped
			// state) and now served to its original requester.
			srv.recoveredReplays.Add(1)
		}
		// Copy into the connection scratch: the write to the socket happens
		// after the session lock is released, and a racing replacement
		// connection may recycle the window entry in the meantime.
		reply = append((*scratch)[:0], cached...)
		if cap(reply) > cap(*scratch) {
			*scratch = reply
		}
		return reply, false, false
	} else if class == idStale {
		return appendErr((*scratch)[:0], ErrStaleRequest, "request ID fell out of the outcome window"), false, false
	}

	reply, closing, fatal = srv.execute(sess, op, r, (*scratch)[:0])
	if cap(reply) > cap(*scratch) {
		*scratch = reply // keep the grown buffer for the next frame
	}
	if !fatal && len(reply) > 0 && reply[0] == StatusOK && !closing {
		if db := srv.db.Load(); db != nil && !sess.observer && mutates(op) {
			// The durability barrier before release: the outcome record is
			// appended to the log behind this request's linearized
			// mutations and one fsync anchors both, so a replayed verdict
			// can never outlive its effect. Only then may the reply leave.
			// Read-only replies skip it: they have no effect to anchor, a
			// never-delivered read simply re-executes fresh after a
			// restart, and the in-memory window still covers
			// connection-level resume — so reads cost no fsync.
			if err := db.CommitOutcome(sess.id, reqID, reply); err != nil {
				return appendErr((*scratch)[:0], ErrBadRequest, "durable outcome commit failed"), false, true
			}
		}
		sess.record(reqID, reply)
	}
	return reply, closing, fatal
}

// mutates reports whether op can linearize effects that must be durable
// before its verdict is released.
func mutates(op byte) bool {
	return op == OpPut || op == OpDel || op == OpMPut
}

// execute decodes the op-specific body, runs it as the session's process
// and appends the reply to dst. Called with the session lock held.
func (srv *Server) execute(sess *session, op byte, r *Reader, dst []byte) (reply []byte, closing, fatal bool) {
	bad := func(msg string) ([]byte, bool, bool) { return appendErr(dst, ErrBadRequest, msg), false, true }
	data := func() bool { return !sess.observer } // data ops need a process slot

	if op == OpServerStats {
		// Node status is served everywhere — primaries, standbys, fenced
		// ex-primaries — from atomics only (no srv.mu: attach holds srv.mu
		// before session locks, and execute runs under a session lock).
		if r.Err || r.Rest() != 0 {
			return bad("malformed SERVER-STATS")
		}
		return srv.appendServerStatsReply(dst), false, false
	}
	if srv.fenced.Load() && op != OpClose {
		// A fenced ex-primary serves no data: every verdict now belongs to
		// the promoted replica. The client redials its other addresses.
		return appendErr(dst, ErrNotPrimary, "fenced: this node was demoted"), false, false
	}
	if sess.readOnly {
		// Read-only sessions bypass the store (they hold no process slot)
		// and are the one session kind a standby serves: GETs are answered
		// from committed state — the replica's applied view, or the durable
		// mirror / live store on a primary (readonly.go).
		return srv.executeReadOnly(sess, op, r, dst)
	}
	store := srv.store.Load()
	if store == nil && op != OpClose {
		// A standby has no store until promotion installs one: observer
		// sessions may only poll SERVER-STATS, PROMOTE and CLOSE here.
		return appendErr(dst, ErrNotPrimary, "standby: not serving until promoted"), false, false
	}

	switch op {
	case OpGet, OpDel:
		plan := r.U32()
		key := r.KeyRef()
		if r.Err || r.Rest() != 0 {
			return bad("malformed GET/DEL")
		}
		if !data() {
			return appendErr(dst, ErrObserver, "data operation on observer session"), false, false
		}
		var out runtime.Outcome[int]
		if op == OpGet {
			out = store.Get(sess.pid, key, planOf(plan)...)
		} else {
			out = store.Del(sess.pid, key, planOf(plan)...)
		}
		return appendOutcomeReply(dst, out), false, false

	case OpPut:
		plan := r.U32()
		key := r.KeyRef()
		val := int(r.I64())
		if r.Err || r.Rest() != 0 {
			return bad("malformed PUT")
		}
		if !data() {
			return appendErr(dst, ErrObserver, "data operation on observer session"), false, false
		}
		return appendOutcomeReply(dst, store.Put(sess.pid, key, val, planOf(plan)...)), false, false

	case OpMGet:
		n := int(r.U16())
		if n > MaxBatch {
			return bad("MGET batch too large")
		}
		keys := sess.keys[:0]
		for i := 0; i < n; i++ {
			keys = append(keys, r.KeyRef())
		}
		sess.keys = keys
		if r.Err || r.Rest() != 0 {
			return bad("malformed MGET")
		}
		if !data() {
			return appendErr(dst, ErrObserver, "data operation on observer session"), false, false
		}
		return appendOutcomesReply(dst, store.MultiGetWith(&sess.batch, sess.pid, keys)), false, false

	case OpMPut:
		n := int(r.U16())
		if n > MaxBatch {
			return bad("MPUT batch too large")
		}
		entries := sess.entries[:0]
		for i := 0; i < n; i++ {
			entries = append(entries, shardkv.KV{Key: r.KeyRef(), Val: int(r.I64())})
		}
		sess.entries = entries
		if r.Err || r.Rest() != 0 {
			return bad("malformed MPUT")
		}
		if !data() {
			return appendErr(dst, ErrObserver, "data operation on observer session"), false, false
		}
		return appendOutcomesReply(dst, store.MultiPutWith(&sess.batch, sess.pid, entries)), false, false

	case OpCrash:
		shard := r.U32()
		if r.Err || r.Rest() != 0 {
			return bad("malformed CRASH")
		}
		if shard == CrashAllShards {
			store.Crash()
		} else if int(shard) < store.NumShards() {
			store.CrashShard(int(shard))
		} else {
			return appendErr(dst, ErrBadRequest, "shard out of range"), false, false
		}
		return appendAck(dst), false, false

	case OpStats:
		if r.Err || r.Rest() != 0 {
			return bad("malformed STATS")
		}
		return appendStatsReply(dst, store.Snapshots()), false, false

	case OpClose:
		if r.Err || r.Rest() != 0 {
			return bad("malformed CLOSE")
		}
		return appendAck(dst), true, false

	default:
		return bad("unknown opcode")
	}
}

// planOf maps the wire's plan field to a crash plan: 0 is none, p > 0
// injects one system-wide crash before the p-th primitive step of the
// operation on its shard — the deterministic injection surface of
// nvm.CrashAtStep, exposed over the wire.
func planOf(plan uint32) []nvm.CrashPlan {
	if plan == 0 {
		return nil
	}
	return []nvm.CrashPlan{nvm.CrashAtStep(uint64(plan))}
}
