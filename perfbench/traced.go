package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"sync/atomic"
	"time"

	"detectable/internal/client"
	"detectable/internal/durable"
	"detectable/internal/runtime"
	"detectable/internal/server"
	"detectable/internal/shardkv"
	"detectable/internal/space"
)

// span is one timed call the benchmark made into a module. parent indexes
// the span that caused it in the same tracer (-1 for a request's root), so
// the spans of one request share their root; read records whether the
// request read.
type span struct {
	name   string
	parent int
	read   bool
	start  time.Time
	dur    time.Duration
}

// tracer keeps one goroutine's spans in memory.
type tracer struct{ spans []span }

func (t *tracer) begin(name string, parent int, read bool) int {
	t.spans = append(t.spans, span{name: name, parent: parent, read: read, start: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].dur = time.Since(t.spans[i].start) }

// durs collects, sorted, the durations of every span named name across
// tracers.
func durs(trs []*tracer, name string) []time.Duration {
	return dursOf(trs, name, func(span) bool { return true })
}

// dursOf is durs restricted to the spans keep accepts.
func dursOf(trs []*tracer, name string, keep func(span) bool) []time.Duration {
	var out []time.Duration
	for _, t := range trs {
		for _, s := range t.spans {
			if s.name == name && keep(s) {
				out = append(out, s.dur)
			}
		}
	}
	sortDurations(out)
	return out
}

func ns(d time.Duration) float64 { return float64(d) }

// storeExec executes ops directly on a shardkv store as process pid. With
// db set, every write is followed by db.CommitOutcome as session sid, the
// call the server makes before releasing a mutation's verdict.
type storeExec struct {
	st      *shardkv.Store
	pid     int
	db      *durable.DB
	sid     uint64
	reqID   uint64
	names   []string
	batch   bool
	sc      shardkv.BatchScratch
	keys    []string
	entries []shardkv.KV
	one     [1]runtime.Outcome[int]
	tr      *tracer

	batches, groups int64 // batch requests and the shard groups they touched
	userBytes       int64 // key and value bytes of every entry written
}

// commitReply stands in for the encoded reply whose outcome is committed.
var commitReply = []byte{server.StatusOK, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}

func (e *storeExec) do(o *op) ([]runtime.Outcome[int], error) {
	root := e.tr.begin("op", -1, o.read)
	var outs []runtime.Outcome[int]
	if !e.batch {
		k := e.names[o.keys[0]]
		if o.read {
			s := e.tr.begin("shardkv.Get", root, o.read)
			e.one[0] = e.st.Get(e.pid, k)
			e.tr.end(s)
		} else {
			e.userBytes += int64(len(k) + 8)
			s := e.tr.begin("shardkv.Put", root, o.read)
			e.one[0] = e.st.Put(e.pid, k, o.vals[0])
			e.tr.end(s)
		}
		outs = e.one[:]
	} else {
		seen := 0
		e.keys, e.entries = e.keys[:0], e.entries[:0]
		for i, k := range o.keys {
			bit := 1 << shardkv.ShardIndex(e.names[k], shards)
			if seen&bit == 0 {
				seen |= bit
				e.groups++
			}
			if o.read {
				e.keys = append(e.keys, e.names[k])
			} else {
				e.entries = append(e.entries, shardkv.KV{Key: e.names[k], Val: o.vals[i]})
				e.userBytes += int64(len(e.names[k]) + 8)
			}
		}
		e.batches++
		if o.read {
			s := e.tr.begin("shardkv.MultiGet", root, o.read)
			outs = e.st.MultiGetWith(&e.sc, e.pid, e.keys)
			e.tr.end(s)
		} else {
			s := e.tr.begin("shardkv.MultiPut", root, o.read)
			outs = e.st.MultiPutWith(&e.sc, e.pid, e.entries)
			e.tr.end(s)
		}
	}
	if e.db != nil && !o.read {
		e.reqID++
		s := e.tr.begin("durable.CommitOutcome", root, o.read)
		err := e.db.CommitOutcome(e.sid, e.reqID, commitReply)
		e.tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	e.tr.end(root)
	return outs, nil
}

// handleExec executes ops through server.LoopbackSession.Handle: the whole
// request path of the server without a socket.
type handleExec struct {
	ls    *server.LoopbackSession
	names []string
	batch bool
	req   []byte
	keys  []string
	ents  []shardkv.KV
	outs  []runtime.Outcome[int]
	tr    *tracer
}

func (e *handleExec) do(o *op) ([]runtime.Outcome[int], error) {
	id := e.ls.NextID()
	switch {
	case !e.batch && o.read:
		e.req = server.AppendGet(e.req[:0], id, 0, e.names[o.keys[0]])
	case !e.batch:
		e.req = server.AppendPut(e.req[:0], id, 0, e.names[o.keys[0]], o.vals[0])
	case o.read:
		e.keys = e.keys[:0]
		for _, k := range o.keys {
			e.keys = append(e.keys, e.names[k])
		}
		e.req = server.AppendMGet(e.req[:0], id, e.keys)
	default:
		e.ents = e.ents[:0]
		for i, k := range o.keys {
			e.ents = append(e.ents, shardkv.KV{Key: e.names[k], Val: o.vals[i]})
		}
		e.req = server.AppendMPut(e.req[:0], id, e.ents)
	}
	s := e.tr.begin("server.Handle", -1, o.read)
	reply := e.ls.Handle(e.req)
	e.tr.end(s)
	r := server.NewReader(reply)
	if code := r.U8(); code != server.StatusOK {
		return nil, fmt.Errorf("%w: Handle: %s", errCheck, server.ErrName(code))
	}
	n := 1
	if e.batch {
		n = int(r.U16())
	}
	e.outs = e.outs[:0]
	for i := 0; i < n; i++ {
		e.outs = append(e.outs, r.Outcome())
	}
	if r.Err || r.Rest() != 0 || n != len(o.keys) {
		return nil, fmt.Errorf("%w: Handle: malformed reply", errCheck)
	}
	return e.outs, nil
}

// clientExec executes ops through a client session over loopback TCP,
// alternating blocks recorded as spans with blocks timed by a bare pair of
// clock reads; trace.overhead_ratio compares the two.
type clientExec struct {
	s       *session
	tr      *tracer
	bare    []sample
	n       int
	bareRun bool
}

const overheadBlock = 128

// alternate executes blocks of altBlock consecutive ops on each of its
// executors in turn.
type alternate struct {
	ex []executor
	n  int
}

const altBlock = 64

func (a *alternate) do(o *op) ([]runtime.Outcome[int], error) {
	e := a.ex[(a.n/altBlock)%len(a.ex)]
	a.n++
	return e.do(o)
}

func (e *clientExec) do(o *op) ([]runtime.Outcome[int], error) {
	if e.n%overheadBlock == 0 {
		e.bareRun = !e.bareRun
	}
	e.n++
	if e.bareRun {
		t := time.Now()
		outs, err := e.s.do(o)
		e.bare = append(e.bare, sample{lat: time.Since(t), read: o.read})
		return outs, err
	}
	root := e.tr.begin("client.call", -1, o.read)
	outs, err := e.s.do(o)
	e.tr.end(root)
	return outs, err
}

// layerRun holds what one traced run keeps between its stages.
type layerRun struct {
	w      spec
	seed   int64
	names  []string
	budget time.Duration // closed-loop time per timed pass
	rep    *report
	cnt    counts
	work   string
	// ndWrite is the p50 write span on the non-durable store, the base
	// durable.journal_ns is measured against.
	ndWrite time.Duration
	tracers []*tracer // every tracer of the run, for printSpans
}

// pass runs the op stream in a closed loop for d over one executor per
// session, adding its requests to the run's counts.
func (lr *layerRun) pass(ex []executor, streams []*stream, chk *checker, d time.Duration) error {
	p, err := runPhase(ex, streams, chk, 0, 0, d)
	lr.cnt.attempted += p.requests
	lr.cnt.failed += p.failed
	return err
}

func newStreams(w spec, seed int64) []*stream {
	out := make([]*stream, sessions)
	for i := range out {
		out[i] = newStream(w, seed, i)
	}
	return out
}

// newTracers returns one tracer per session, kept for printSpans.
func (lr *layerRun) newTracers() []*tracer {
	out := make([]*tracer, sessions)
	for i := range out {
		out[i] = &tracer{}
	}
	lr.tracers = append(lr.tracers, out...)
	return out
}

// printSpans writes every span the run recorded out as one summary line
// per span name: count, p50 and p99 duration, and p50 self time (the span
// minus the spans it caused).
func (lr *layerRun) printSpans() {
	all := map[string][]time.Duration{}
	self := map[string][]time.Duration{}
	var names []string
	for _, t := range lr.tracers {
		children := make([]time.Duration, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				children[s.parent] += s.dur
			}
		}
		for i, s := range t.spans {
			if _, ok := all[s.name]; !ok {
				names = append(names, s.name)
			}
			all[s.name] = append(all[s.name], s.dur)
			self[s.name] = append(self[s.name], s.dur-children[i])
		}
	}
	sort.Strings(names)
	for _, n := range names {
		d, sd := all[n], self[n]
		sortDurations(d)
		sortDurations(sd)
		fmt.Printf("span %-22s n=%-7d p50 %10.1f us  p99 %10.1f us  self p50 %10.1f us\n",
			n, len(d), us(quantile(d, 0.5)), us(quantile(d, 0.99)), us(quantile(sd, 0.5)))
	}
}

// runTraced is the --trace 1 run: the workload's seeded op stream driven
// in-process through each module's public functions, timing every call
// the benchmark makes. It adds no instrumentation to the program; a
// layer's self time is its span minus the isolated pass of its children
// over the same store.
func runTraced(w spec, seed int64, seconds int, work string) (*report, counts, error) {
	lr := &layerRun{
		w: w, seed: seed, names: keyNames(w.keys), work: work,
		budget: time.Duration(seconds) * time.Second / 10,
		rep:    newReport(perLayer),
	}
	lr.rep.set("space.alg1_bits_per_key", float64(space.RW(procs, 64).Total(procs)))
	if err := lr.generator(); err != nil {
		return nil, lr.cnt, err
	}
	if err := lr.memoryLayers(); err != nil {
		return nil, lr.cnt, err
	}
	goruntime.GC()
	chk, dir, err := lr.durableLayers()
	if err != nil {
		return nil, lr.cnt, err
	}
	if err := lr.recoveryLayer(chk, dir); err != nil {
		return nil, lr.cnt, err
	}
	lr.printSpans()
	return lr.rep, lr.cnt, nil
}

// nullExec answers every op as linearized without running it.
type nullExec struct{ outs []runtime.Outcome[int] }

func (e *nullExec) do(o *op) ([]runtime.Outcome[int], error) {
	e.outs = e.outs[:0]
	for range o.keys {
		e.outs = append(e.outs, runtime.Outcome[int]{Status: runtime.StatusOK})
	}
	return e.outs, nil
}

// generator runs the paced generator at the workload's rate over executors
// that do nothing, before the run has built any store: gen.late_us_p99 is
// the lateness of the benchmark's own clock, with nothing else in the
// process to blame.
func (lr *layerRun) generator() error {
	ex := make([]executor, sessions)
	for i := range ex {
		ex[i] = &nullExec{}
	}
	p, err := runPhase(ex, newStreams(lr.w, lr.seed), nil, lr.w.rate, int(lr.w.rate*lr.budget.Seconds()/sessions), 0)
	if err != nil {
		return err
	}
	sortDurations(p.late)
	lr.rep.set("gen.late_us_p99", us(quantile(p.late, 0.99)))
	return nil
}

// kvLayer writes every key once into a fresh non-durable store — the
// first write of a key creates its register — timing each write, and
// measures the heap the keys retain.
func (lr *layerRun) kvLayer() (*shardkv.Store, error) {
	nd := shardkv.New(shards, procs)
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	ins := make([]time.Duration, len(lr.names))
	for k, name := range lr.names {
		t := time.Now()
		out := nd.Put(0, name, initialValue)
		ins[k] = time.Since(t)
		if !out.Status.Linearized() {
			return nil, fmt.Errorf("%w: first PUT %s: verdict %s", errCheck, name, out.Status)
		}
	}
	lr.cnt.attempted += int64(len(lr.names))
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	lr.rep.set("kv.heap_bytes_per_key", float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(len(lr.names)))

	// Least-squares slope of insert time against the keys already present.
	var sx, sy, sxx, sxy float64
	for k, d := range ins {
		x, y := float64(k), us(d)
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	n := float64(len(ins))
	lr.rep.set("kv.insert_slope_us_per_1k", 1000*(n*sxy-sx*sy)/(n*sxx-sx*sx))
	sortDurations(ins)
	lr.rep.set("kv.insert_us", us(quantile(ins, 0.5)))
	return nd, nil
}

// storeExecs returns one storeExec per session over st.
func storeExecs(st *shardkv.Store, names []string, batch bool, trs []*tracer) ([]executor, []*storeExec, error) {
	ex := make([]executor, sessions)
	se := make([]*storeExec, sessions)
	for i := range ex {
		pid, ok := st.AcquireProc()
		if !ok {
			return nil, nil, fmt.Errorf("no free process slot")
		}
		se[i] = &storeExec{st: st, pid: pid, names: names, batch: batch, tr: trs[i]}
		ex[i] = se[i]
	}
	return ex, se, nil
}

func release(st *shardkv.Store, se []*storeExec) {
	for _, e := range se {
		st.ReleaseProc(e.pid)
	}
}

// memoryLayers times kv, shardkv, server.Handle and the client on a
// non-durable store, where every layer is CPU work and a self time is a
// difference of microseconds, not of fsyncs. The op stream runs through
// all three, checked against one model, and self times are differences of
// p50s. Then, for the request shape the workload does not issue, the same
// key distribution runs as singles or as batches of 16.
func (lr *layerRun) memoryLayers() error {
	nd, err := lr.kvLayer()
	if err != nil {
		return err
	}
	chk := newChecker(lr.names)
	chk.setInitial()
	streams := newStreams(lr.w, lr.seed)
	batch := lr.w.batch > 0

	// One pass alternates blocks of the op stream between the store
	// directly, server.Handle and a client over loopback TCP, so the p50s
	// a self time subtracts are taken under the same conditions.
	trs, htrs, ctrs := lr.newTracers(), lr.newTracers(), lr.newTracers()
	ex, se, err := storeExecs(nd, lr.names, batch, trs)
	if err != nil {
		return err
	}
	defer release(nd, se)
	srv := server.New(nd)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	defer srv.Close()
	mixed := make([]executor, sessions)
	ces := make([]*clientExec, sessions)
	for i := range mixed {
		ls, err := srv.NewLoopbackSession()
		if err != nil {
			return err
		}
		defer ls.Close()
		c, err := client.Dial(srv.Addr().String())
		if err != nil {
			return err
		}
		defer c.Close()
		ces[i] = &clientExec{s: newSession(c, lr.names, lr.w), tr: ctrs[i]}
		mixed[i] = &alternate{ex: []executor{
			ex[i],
			&handleExec{ls: ls, names: lr.names, batch: batch, tr: htrs[i]},
			ces[i],
		}}
	}
	if err := lr.pass(mixed, streams, chk, 3*lr.budget); err != nil {
		return err
	}
	lr.ndWrite = quantile(durs(trs, writeSpan(lr.w)), 0.5)

	// Self times compare the workload's principal operation only: in a
	// 50/50 mix a p50 over all requests falls between the read and write
	// modes.
	pr := principalRead(lr.w)
	isPrincipal := func(s span) bool { return s.read == pr }
	opP50 := quantile(dursOf(trs, "op", isPrincipal), 0.5)
	handleP50 := quantile(dursOf(htrs, "server.Handle", isPrincipal), 0.5)
	lr.rep.set("server.handle_ns", ns(handleP50-opP50))
	var bare []time.Duration
	for _, e := range ces {
		for _, b := range e.bare {
			if b.read == pr {
				bare = append(bare, b.lat)
			}
		}
	}
	sortDurations(bare)
	traced := dursOf(ctrs, "client.call", isPrincipal)
	lr.rep.set("client.rtt_ns", ns(quantile(bare, 0.5)-handleP50))
	lr.rep.set("trace.overhead_ratio", float64(quantile(traced, 0.5))/float64(quantile(bare, 0.5)))

	if err := chk.verifyAll("traced memory store", reader(ces[0].s.c, lr.names)); err != nil {
		return err
	}
	lr.cnt.attempted += int64(len(lr.names))
	if err := chk.err(); err != nil {
		lr.cnt.failed += chk.failed.Load()
		return err
	}

	other := lr.w
	other.batch = 16
	if batch {
		other.batch = 0
	}
	otrs := lr.newTracers()
	oex, ose, err := storeExecs(nd, lr.names, !batch, otrs)
	if err != nil {
		return err
	}
	if err := lr.pass(oex, newStreams(other, lr.seed), nil, lr.budget); err != nil {
		return err
	}
	release(nd, ose)
	all := append(trs, otrs...)
	get, put := durs(all, "shardkv.Get"), durs(all, "shardkv.Put")
	lr.rep.set("shardkv.get_ns_p50", ns(quantile(get, 0.5)))
	lr.rep.set("shardkv.get_ns_p99", ns(quantile(get, 0.99)))
	lr.rep.set("shardkv.put_ns_p50", ns(quantile(put, 0.5)))
	lr.rep.set("shardkv.put_ns_p99", ns(quantile(put, 0.99)))
	lr.rep.set("shardkv.mget_ns_p50", ns(quantile(durs(all, "shardkv.MultiGet"), 0.5)))
	lr.rep.set("shardkv.mput_ns_p50", ns(quantile(durs(all, "shardkv.MultiPut"), 0.5)))
	var batches, groups int64
	for _, e := range append(se, ose...) {
		batches += e.batches
		groups += e.groups
	}
	lr.rep.set("shardkv.groups_per_batch", float64(groups)/float64(batches))
	return nil
}

// writeSpan names the shardkv call the workload's writes make.
func writeSpan(w spec) string {
	if w.batch > 0 {
		return "shardkv.MultiPut"
	}
	return "shardkv.Put"
}

// durableLayers runs the op stream through a durable store the way the
// served primary does — shardkv, then durable.DB.CommitOutcome — first
// without and then with a synchronous replica subscriber, and returns the
// model and the closed data directory for recoveryLayer.
func (lr *layerRun) durableLayers() (*checker, string, error) {
	dir := filepath.Join(lr.work, "traced-primary")
	cfs := newCountFs(durable.OS)
	db, err := durable.OpenFs(cfs, dir, shards, procs, server.Window)
	if err != nil {
		return nil, "", err
	}
	defer db.Close()
	st := shardkv.New(shards, procs, shardkv.Durable(db))
	srv := server.New(st)
	if err := srv.AttachDurable(db); err != nil {
		return nil, "", err
	}
	db.StartGroupCommit(0)
	defer db.StopGroupCommit()
	if err := warm(srv, lr.names); err != nil {
		return nil, "", err
	}
	lr.cnt.attempted += int64(len(lr.names))
	chk := newChecker(lr.names)
	chk.setInitial()
	streams := newStreams(lr.w, lr.seed)

	trs := lr.newTracers()
	ex, se, err := storeExecs(st, lr.names, lr.w.batch > 0, trs)
	if err != nil {
		return nil, "", err
	}
	defer release(st, se)
	for i, e := range se {
		e.db, e.sid = db, 1<<40+uint64(i)
		if err := db.AppendHello(e.sid, e.pid); err != nil {
			return nil, "", err
		}
	}
	e0, c0 := db.GroupCommitStats()
	f0 := cfs.counts()
	if err := lr.pass(ex, streams, chk, lr.budget); err != nil {
		return nil, "", err
	}
	e1, c1 := db.GroupCommitStats()
	f1 := cfs.counts()
	epochs := float64(e1 - e0)
	commit := durs(trs, "durable.CommitOutcome")
	lr.rep.set("durable.journal_ns", ns(quantile(durs(trs, writeSpan(lr.w)), 0.5)-lr.ndWrite))
	lr.rep.set("durable.commit_ns_p50", ns(quantile(commit, 0.5)))
	lr.rep.set("durable.commit_ns_p99", ns(quantile(commit, 0.99)))
	lr.rep.set("durable.commits_per_epoch", float64(c1-c0)/epochs)
	syncs := cfs.syncsSince(f0)
	sortDurations(syncs)
	lr.rep.set("durable.fsyncs_per_epoch", float64(f1.syncs-f0.syncs)/epochs)
	lr.rep.set("durable.fsync_ns_p50", ns(quantile(syncs, 0.5)))
	lr.rep.set("durable.bytes_written", float64(f1.written-f0.written))
	lr.rep.set("durable.compactions", float64(f1.renames-f0.renames))
	var userBytes int64
	for _, e := range se {
		userBytes += e.userBytes
	}
	lr.rep.set("durable.write_amp", float64(f1.written-f0.written)/float64(userBytes))

	// The same, with a synchronous replica subscriber applying into a
	// standby directory and acknowledging every barrier.
	rep, err := startReplica(db, filepath.Join(lr.work, "traced-standby"))
	if err != nil {
		return nil, "", err
	}
	defer rep.stop()
	wtrs := lr.newTracers()
	for i, e := range se {
		e.tr = wtrs[i]
	}
	m0, a0, b0 := rep.msgs.Load(), rep.applyNs.Load(), rep.barriers.Load()
	if err := lr.pass(ex, streams, chk, lr.budget); err != nil {
		return nil, "", err
	}
	m1, a1, b1 := rep.msgs.Load(), rep.applyNs.Load(), rep.barriers.Load()
	lr.rep.set("repl.apply_ns", float64(a1-a0)/float64(m1-m0))
	lr.rep.set("repl.msgs_per_epoch", float64(m1-m0)/float64(b1-b0))
	lr.rep.set("repl.ack_wait_ns", ns(quantile(durs(wtrs, "durable.CommitOutcome"), 0.5)-quantile(commit, 0.5)))
	for _, e := range se {
		if err := db.AppendEnd(e.sid); err != nil {
			return nil, "", err
		}
	}
	if err := chk.err(); err != nil {
		lr.cnt.failed += chk.failed.Load()
		return nil, "", err
	}
	return chk, dir, nil
}

// warm writes initialValue to every key through a loopback session, in
// MPUTs of 64 keys.
func warm(srv *server.Server, names []string) error {
	ls, err := srv.NewLoopbackSession()
	if err != nil {
		return err
	}
	defer ls.Close()
	var req []byte
	entries := make([]shardkv.KV, 0, 64)
	for lo := 0; lo < len(names); lo += 64 {
		entries = entries[:0]
		for k := lo; k < lo+64 && k < len(names); k++ {
			entries = append(entries, shardkv.KV{Key: names[k], Val: initialValue})
		}
		req = server.AppendMPut(req[:0], ls.NextID(), entries)
		if reply := ls.Handle(req); len(reply) == 0 || reply[0] != server.StatusOK {
			return fmt.Errorf("%w: warm-up MPUT refused", errCheck)
		}
	}
	return nil
}

// replica is a benchmark-owned standby: a DB.Subscribe stream applied
// into a second DB with Replica.Apply, acknowledging every barrier.
type replica struct {
	sub      *durable.ReplSub
	db       *durable.DB
	done     chan error
	msgs     atomic.Int64
	barriers atomic.Int64
	applyNs  atomic.Int64
}

func startReplica(primary *durable.DB, dir string) (*replica, error) {
	db, err := durable.Open(dir, shards, procs, server.Window)
	if err != nil {
		return nil, err
	}
	r := &replica{sub: primary.Subscribe(0, true), db: db, done: make(chan error, 1)}
	go r.loop()
	// Commits are gated on the replica once it acknowledged its snapshot.
	snap := r.sub.SnapSeq()
	for {
		if _, acked, _ := primary.ReplStatus(); acked >= snap {
			return r, nil
		}
		select {
		case err := <-r.done:
			db.Close()
			return nil, fmt.Errorf("replica stopped during its snapshot: %w", err)
		case <-time.After(time.Millisecond):
		}
	}
}

func (r *replica) loop() {
	rp := r.db.NewReplica()
	for {
		chunk, err := r.sub.Next()
		if err != nil {
			r.done <- err
			return
		}
		rd := bytes.NewReader(chunk)
		for rd.Len() > 0 {
			msg, err := server.ReadFrame(rd)
			if err != nil {
				r.sub.Close()
				r.done <- err
				return
			}
			t := time.Now()
			seq, barrier, err := rp.Apply(msg)
			r.applyNs.Add(int64(time.Since(t)))
			r.msgs.Add(1)
			if err != nil {
				r.sub.Close()
				r.done <- err
				return
			}
			if barrier {
				r.barriers.Add(1)
				r.sub.Ack(seq)
			}
		}
	}
}

// stop closes the subscription, waits for the apply loop and closes the
// standby DB.
func (r *replica) stop() {
	r.sub.Close()
	<-r.done
	r.db.Close()
}

// recoveryLayer copies the closed primary directory and times opening it
// (durable.OpenFs) and rebuilding the store from it (shardkv.New with
// shardkv.Durable), then checks every key against the model.
func (lr *layerRun) recoveryLayer(chk *checker, dir string) error {
	cp := dir + "-copy"
	if err := copyDir(dir, cp); err != nil {
		return err
	}
	t0 := time.Now()
	db, err := durable.OpenFs(durable.OS, cp, shards, procs, server.Window)
	if err != nil {
		return err
	}
	defer db.Close()
	t1 := time.Now()
	st := shardkv.New(shards, procs, shardkv.Durable(db))
	t2 := time.Now()
	lr.rep.set("durable.open_s", t1.Sub(t0).Seconds())
	lr.rep.set("shardkv.restore_s", t2.Sub(t1).Seconds())
	lr.cnt.attempted += int64(len(lr.names))
	return chk.verifyAll("traced restore", func(keys []int) ([]int64, error) {
		vals := make([]int64, len(keys))
		for i, k := range keys {
			vals[i] = int64(st.Peek(lr.names[k]))
		}
		return vals, nil
	})
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
