package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"detectable/internal/client"
	"detectable/internal/shardkv"
)

// node is one spawned kvserverd process.
type node struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
	log  *os.File
}

// startNode launches bin on a fresh loopback port over data dir and returns
// once it accepts connections (after its recovery finished).
func startNode(bin, dir, logPath string, extra ...string) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-data", dir}, serverFlags...)
	cmd := exec.Command(bin, append(args, extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies without reaching its own kill, so do its nodes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	n := &node{cmd: cmd, addr: addr, done: make(chan struct{}), log: logf}
	go func() { cmd.Wait(); close(n.done) }() //nolint:errcheck // exit status is irrelevant once we stop it
	for deadline := time.Now().Add(60 * time.Second); ; {
		conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			conn.Close()
			return n, nil
		}
		select {
		case <-n.done:
			n.log.Close()
			return nil, fmt.Errorf("kvserverd exited during start-up (log %s)", logPath)
		default:
		}
		if time.Now().After(deadline) {
			n.kill()
			return nil, fmt.Errorf("kvserverd never accepted connections: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the node and waits until the process has exited.
func (n *node) kill() {
	n.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-n.done
	n.log.Close()
}

// rss reads the node's resident set size from /proc, in bytes.
func (n *node) rss() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := bytes.CutPrefix(sc.Bytes(), []byte("VmRSS:")); ok {
			kb, err := strconv.ParseInt(string(bytes.Fields(rest)[0]), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", n.cmd.Process.Pid)
}

// cluster is a durable primary with its synchronous standby.
type cluster struct {
	primary, standby *node
	pdir, sdir       string
}

func (c *cluster) kill() {
	if c.standby != nil {
		c.standby.kill()
	}
	if c.primary != nil {
		c.primary.kill()
	}
}

// setup builds a cluster over empty directories and writes initialValue to
// every key through one session, returning the set-up time and the
// primary's resident bytes per key (its RSS after warm-up minus its RSS
// while empty).
func setup(w spec, bin, work string, names []string) (_ *cluster, took time.Duration, rssPerKey float64, err error) {
	c := &cluster{pdir: filepath.Join(work, "primary"), sdir: filepath.Join(work, "standby")}
	defer func() {
		if err != nil {
			c.kill()
		}
	}()
	for _, d := range []string{c.pdir, c.sdir} {
		if err := os.RemoveAll(d); err != nil {
			return nil, 0, 0, err
		}
	}
	t0 := time.Now()
	if c.primary, err = startNode(bin, c.pdir, filepath.Join(work, "primary.log")); err != nil {
		return nil, 0, 0, err
	}
	empty, err := c.primary.rss()
	if err != nil {
		return nil, 0, 0, err
	}
	if c.standby, err = startNode(bin, c.sdir, filepath.Join(work, "standby.log"), "-replica-of", c.primary.addr); err != nil {
		return nil, 0, 0, err
	}
	if err := waitSynced(c.primary.addr, 60*time.Second); err != nil {
		return nil, 0, 0, err
	}
	cl, err := client.Dial(c.primary.addr)
	if err != nil {
		return nil, 0, 0, err
	}
	defer cl.Close() //nolint:errcheck // the session's slot is released either way
	const chunk = 64
	entries := make([]shardkv.KV, 0, chunk)
	for lo := 0; lo < w.keys; lo += chunk {
		entries = entries[:0]
		for k := lo; k < lo+chunk && k < w.keys; k++ {
			entries = append(entries, shardkv.KV{Key: names[k], Val: initialValue})
		}
		outs, err := cl.MultiPut(entries)
		if err != nil {
			return nil, 0, 0, err
		}
		for i, out := range outs {
			if !out.Status.Linearized() {
				return nil, 0, 0, fmt.Errorf("%w: set-up PUT %s: verdict %s", errCheck, entries[i].Key, out.Status)
			}
		}
	}
	took = time.Since(t0)
	full, err := c.primary.rss()
	if err != nil {
		return nil, 0, 0, err
	}
	return c, took, float64(full-empty) / float64(w.keys), nil
}

// waitSynced polls the primary until a standby stream is attached and has
// acknowledged every replication barrier issued so far.
func waitSynced(addr string, timeout time.Duration) error {
	obs, err := client.DialObserver(addr)
	if err != nil {
		return err
	}
	defer obs.Close()
	for deadline := time.Now().Add(timeout); ; {
		st, err := obs.ServerStats()
		if err != nil {
			return err
		}
		if st.Replicas >= 1 && st.ReplSeq > 0 && st.ReplAcked >= st.ReplSeq {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("standby not synced: replicas=%d seq=%d acked=%d", st.Replicas, st.ReplSeq, st.ReplAcked)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitApplied waits until the standby's read view has applied every
// barrier the primary issued.
func waitApplied(primary, standby string, timeout time.Duration) error {
	po, err := client.DialObserver(primary)
	if err != nil {
		return err
	}
	defer po.Close()
	pst, err := po.ServerStats()
	if err != nil {
		return err
	}
	so, err := client.DialReadOnly(standby)
	if err != nil {
		return err
	}
	defer so.Close()
	for deadline := time.Now().Add(timeout); ; {
		sst, err := so.ServerStats()
		if err != nil {
			return err
		}
		if sst.ReplApplied >= pst.ReplSeq {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("standby applied %d of %d barriers", sst.ReplApplied, pst.ReplSeq)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// reader returns a verifyAll read function over a session.
func reader(c *client.Client, names []string) func([]int) ([]int64, error) {
	keys := make([]string, 0, 64)
	return func(idx []int) ([]int64, error) {
		keys = keys[:0]
		for _, k := range idx {
			keys = append(keys, names[k])
		}
		outs, err := c.MultiGet(keys)
		if err != nil {
			return nil, err
		}
		vals := make([]int64, len(outs))
		for i, out := range outs {
			if !out.Status.Linearized() {
				return nil, fmt.Errorf("%w: GET %s: verdict %s", errCheck, keys[i], out.Status)
			}
			vals[i] = int64(out.Resp)
		}
		return vals, nil
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// Run shape. A served run is the workload's number of independent trials,
// each on a cluster built from empty directories, so the samples of every
// metric are spread over the whole run; each reported figure is a median
// over trials or over windows of all trials, so one stall of the shared box
// moves one sample, not the result. Each trial's paced and closed phases
// last seconds/6, so a run measures seconds × trials/3.
const (
	warmup  = 500 * time.Millisecond // unmeasured paced requests before each paced phase
	window  = 200                    // principal-op samples per p50 window
	rateWin = 500 * time.Millisecond // closed-loop throughput window
)

// restart SIGKILLs the primary and restarts it on the same directory. It
// returns the time from the restart until a fresh session's first GET was
// answered, and that session.
func restart(c *cluster, bin, work string, names []string) (time.Duration, *client.Client, error) {
	c.primary.kill()
	c.primary = nil
	t0 := time.Now()
	p, err := startNode(bin, c.pdir, filepath.Join(work, "primary.log"))
	if err != nil {
		return 0, nil, fmt.Errorf("restart: %w", err)
	}
	c.primary = p
	cl, err := client.Dial(p.addr)
	if err != nil {
		return 0, nil, fmt.Errorf("restart: %w", err)
	}
	if _, err := cl.Get(names[0]); err != nil {
		cl.Close()
		return 0, nil, fmt.Errorf("restart: first GET: %w", err)
	}
	return time.Since(t0), cl, nil
}

// trialResult is what one trial measured.
type trialResult struct {
	setup, recovery time.Duration
	rssPerKey       float64
	disk            int64 // primary directory bytes after the paced phase
	paced, closed   phase
}

// served holds what the trials of one run share.
type served struct {
	w       spec
	seconds int
	bin     string
	work    string
	names   []string
	streams []*stream // continued across trials, so every trial runs new ops
	cnt     counts
}

// trial builds a cluster, warms it, runs a paced phase of a fixed request
// count at the workload's rate and a closed-loop phase, checks the primary
// and then the standby against the model, stops the standby, and SIGKILLs
// and restarts the primary, checking every acknowledged write after the
// restart.
func (sv *served) trial() (trialResult, error) {
	var tr trialResult
	c, took, rss, err := setup(sv.w, sv.bin, sv.work, sv.names)
	if err != nil {
		return tr, err
	}
	defer c.kill()
	tr.setup, tr.rssPerKey = took, rss
	sv.cnt.attempted += int64(sv.w.keys)

	chk := newChecker(sv.names)
	chk.setInitial()
	defer func() { sv.cnt.failed += chk.failed.Load() }()
	sess := make([]executor, sessions)
	for i := range sess {
		cl, err := client.Dial(c.primary.addr)
		if err != nil {
			return tr, err
		}
		defer cl.KillConn() // on error paths; Close below ends the session
		sess[i] = newSession(cl, sv.names, sv.w)
	}
	phaseSecs := float64(sv.seconds) / 6
	run := func(rate float64, secs float64) (phase, error) {
		var per int
		if rate > 0 {
			per = int(rate * secs / sessions)
		}
		p, err := runPhase(sess, sv.streams, chk, rate, per, time.Duration(secs*float64(time.Second)))
		sv.cnt.attempted += p.requests
		sv.cnt.failed += p.failed
		return p, err
	}
	if _, err := run(sv.w.rate, warmup.Seconds()); err != nil {
		return tr, err
	}
	if tr.paced, err = run(sv.w.rate, phaseSecs); err != nil {
		return tr, err
	}
	if tr.disk, err = dirBytes(c.pdir); err != nil {
		return tr, err
	}
	if tr.closed, err = run(0, phaseSecs); err != nil {
		return tr, err
	}
	for _, s := range sess {
		s.(*session).c.Close() //nolint:errcheck // ends the session; the checks below use fresh ones
	}
	if err := chk.err(); err != nil {
		return tr, err
	}

	pc, err := client.Dial(c.primary.addr)
	if err != nil {
		return tr, err
	}
	err = chk.verifyAll("primary", reader(pc, sv.names))
	pc.Close()
	sv.cnt.attempted += int64(sv.w.keys)
	if err != nil {
		return tr, err
	}
	// The standby's read view must equal the model once it has applied
	// every barrier.
	if err := waitApplied(c.primary.addr, c.standby.addr, 30*time.Second); err != nil {
		return tr, err
	}
	ro, err := client.DialReadOnly(c.standby.addr)
	if err != nil {
		return tr, err
	}
	err = chk.verifyAll("standby", reader(ro, sv.names))
	ro.Close()
	sv.cnt.attempted += int64(sv.w.keys)
	if err != nil {
		return tr, err
	}

	// Recovery, with the standby stopped so its re-sync does not share
	// the restart's CPU.
	c.standby.kill()
	c.standby = nil
	took, cl, err := restart(c, sv.bin, sv.work, sv.names)
	if err != nil {
		return tr, err
	}
	tr.recovery = took
	err = chk.verifyAll("after SIGKILL and restart", reader(cl, sv.names))
	cl.Close()
	sv.cnt.attempted += int64(sv.w.keys)
	return tr, err
}

// principalRead reports whether the workload's principal operation, the
// one p50_us and the traced self times are taken over, is its read: it is
// its write unless the workload mostly reads single keys. In a 50/50 mix
// the median of all requests falls in the gap between the read and write
// latency modes and flips between them.
func principalRead(w spec) bool { return w.batch == 0 && w.getPct >= 50 }

// runServed is the --trace 0 run: the workload's trials, reported as
// medians.
func runServed(w spec, seed int64, seconds int, bin, work string) (*report, counts, error) {
	sv := &served{w: w, seconds: seconds, bin: bin, work: work, names: keyNames(w.keys), streams: newStreams(w, seed)}
	var (
		setupS, recoveryS, rss, disk, p50s, rates []float64
		all                                       []sample
		late                                      []time.Duration
	)
	for i := 0; i < w.trials; i++ {
		tr, err := sv.trial()
		if err != nil {
			sv.cnt.attempted = max(sv.cnt.attempted, sv.cnt.failed, 1)
			return nil, sv.cnt, fmt.Errorf("trial %d: %w", i+1, err)
		}
		setupS = append(setupS, tr.setup.Seconds())
		recoveryS = append(recoveryS, tr.recovery.Seconds())
		rss = append(rss, tr.rssPerKey)
		disk = append(disk, float64(tr.disk)/float64(w.keys))
		var prin []sample
		for _, s := range tr.paced.samples {
			if s.read == principalRead(w) {
				prin = append(prin, s)
			}
		}
		p50s = append(p50s, windowP50s(prin, window)...)
		rates = append(rates, tr.closed.windowRate(rateWin)...)
		all = append(all, tr.paced.samples...)
		late = append(late, tr.paced.late...)
		fmt.Printf("trial %d: setup %.3f s, rss/key %.0f bytes, disk/key %.1f bytes, recovery %.3f s, paced %d requests (last-quarter backlog %v), closed %d requests in %v\n",
			i+1, tr.setup.Seconds(), tr.rssPerKey, float64(tr.disk)/float64(w.keys), tr.recovery.Seconds(),
			len(tr.paced.samples), tr.paced.backlog.Round(time.Microsecond), len(tr.closed.samples), tr.closed.elapsed.Round(time.Millisecond))
	}

	lats := make([]time.Duration, len(all))
	for i, s := range all {
		lats[i] = s.lat
	}
	sortDurations(lats)
	sortDurations(late)
	n := len(lats)
	fmt.Printf("paced: rate=%g/s, principal-op p50 per window of %d: %.0f us\n", w.rate, window, p50s)
	fmt.Printf("paced, all requests: p50 %.1f us, p99_us %.1f (%d beyond), p999_us %.1f (%d beyond); gen.late p99 %.1f us\n",
		us(quantile(lats, 0.5)), us(quantile(lats, 0.99)), n-int(0.99*float64(n)),
		us(quantile(lats, 0.999)), n-int(0.999*float64(n)), us(quantile(late, 0.99)))
	if late99, p50 := us(quantile(late, 0.99)), us(quantile(lats, 0.5)); late99 >= p50 {
		fmt.Printf("warning: generator lateness p99 %.1f us is not below the phase's p50 %.1f us\n", late99, p50)
	}
	fmt.Printf("closed: req/s per window of %v: %.0f\n", rateWin, rates)
	fmt.Printf("error_ratio=%g (%d of %d requests failed, were refused or were not linearized)\n",
		float64(sv.cnt.failed)/float64(sv.cnt.attempted), sv.cnt.failed, sv.cnt.attempted)

	rep := newReport(endToEnd)
	rep.set("throughput_ops_s", medianFloat(rates))
	rep.set("p50_us", medianFloat(p50s))
	rep.set("setup_s", medianFloat(setupS))
	rep.set("recovery_s", medianFloat(recoveryS))
	rep.set("rss_bytes_per_key", medianFloat(rss))
	rep.set("disk_bytes_per_key", medianFloat(disk))
	return rep, sv.cnt, nil
}
