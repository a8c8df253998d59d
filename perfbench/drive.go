package main

import (
	"fmt"
	goruntime "runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"detectable/internal/client"
	"detectable/internal/runtime"
	"detectable/internal/shardkv"
)

// executor runs one generated op against some layer of the program and
// returns one outcome per key.
type executor interface {
	do(o *op) ([]runtime.Outcome[int], error)
}

// session executes ops through a client session over TCP.
type session struct {
	c       *client.Client
	names   []string
	keys    []string
	entries []shardkv.KV
	batch   bool // MGET/MPUT requests rather than GET/PUT
	one     [1]runtime.Outcome[int]
}

func newSession(c *client.Client, names []string, w spec) *session {
	return &session{c: c, names: names, batch: w.batch > 0}
}

func (s *session) do(o *op) ([]runtime.Outcome[int], error) {
	if !s.batch {
		var err error
		k := s.names[o.keys[0]]
		if o.read {
			s.one[0], err = s.c.Get(k)
		} else {
			s.one[0], err = s.c.Put(k, o.vals[0])
		}
		return s.one[:], err
	}
	if o.read {
		s.keys = s.keys[:0]
		for _, k := range o.keys {
			s.keys = append(s.keys, s.names[k])
		}
		return s.c.MultiGet(s.keys)
	}
	s.entries = s.entries[:0]
	for i, k := range o.keys {
		s.entries = append(s.entries, shardkv.KV{Key: s.names[k], Val: o.vals[i]})
	}
	return s.c.MultiPut(s.entries)
}

// phase is one load phase's measurement.
type phase struct {
	samples  []sample        // one per completed request
	late     []time.Duration // paced: how late the generator sent requests it was free to send on time
	backlog  time.Duration   // paced: the largest session's median backlog over its last quarter of sends
	requests int64
	failed   int64
	elapsed  time.Duration
}

// sample is one completed request: when it was due (paced) or sent
// (closed), relative to the phase start, its latency from then, and
// whether it read.
type sample struct {
	at, lat time.Duration
	read    bool
}

// windowP50s splits samples, in due-time order, into consecutive windows
// of size (the last partial window joins its predecessor) and returns each
// window's median latency in microseconds.
func windowP50s(samples []sample, size int) []float64 {
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(a, b int) bool { return s[a].at < s[b].at })
	var out []float64
	for len(s) > 0 {
		n := size
		if len(s) < 2*size {
			n = len(s)
		}
		lats := make([]time.Duration, n)
		for i := range lats {
			lats[i] = s[i].lat
		}
		sortDurations(lats)
		out = append(out, us(quantile(lats, 0.5)))
		s = s[n:]
	}
	return out
}

// windowRate returns the requests completed per second in each
// consecutive window of length win; the phase's figure is their median.
func (p *phase) windowRate(win time.Duration) []float64 {
	n := int(p.elapsed / win)
	if n < 1 {
		return []float64{float64(len(p.samples)) / p.elapsed.Seconds()}
	}
	done := make([]float64, n)
	for _, s := range p.samples {
		if i := int((s.at + s.lat) / win); i < n {
			done[i]++
		}
	}
	for i := range done {
		done[i] /= win.Seconds()
	}
	return done
}

// runPhase drives every session's stream concurrently. With rate > 0 the
// phase is open loop: each session sends perSession requests on a fixed
// schedule (the sessions' schedules interleave), and latency counts from
// each request's due time, so a stall is charged to the requests queued
// behind it. With rate == 0 it is closed loop for dur.
// A nil chk skips the checks (timing-only passes).
func runPhase(sess []executor, streams []*stream, chk *checker, rate float64, perSession int, dur time.Duration) (phase, error) {
	n := len(sess)
	samples := make([][]sample, n)
	lates := make([][]time.Duration, n)
	backlog := make([][]time.Duration, n)
	errs := make([]error, n)
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(n) * float64(time.Second) / rate)
	}
	start := time.Now().Add(5 * time.Millisecond)
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := range sess {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var o op
			low := make([]int64, max(streams[i].w.batch, 1))
			offset := time.Duration(i) * interval / time.Duration(n)
			waitUntil(start)
			for j := 0; ; j++ {
				var due time.Time
				if rate > 0 {
					if j == perSession {
						return
					}
					due = start.Add(offset + time.Duration(j)*interval)
					if free := time.Now(); free.Before(due) {
						waitUntil(due)
						lates[i] = append(lates[i], time.Since(due))
						backlog[i] = append(backlog[i], 0)
					} else {
						backlog[i] = append(backlog[i], free.Sub(due))
					}
				} else {
					due = time.Now()
					if !due.Before(deadline) {
						return
					}
				}
				streams[i].next(&o)
				switch {
				case chk == nil:
				case o.read:
					chk.readLow(&o, low)
				default:
					chk.beginWrite(&o)
				}
				outs, err := sess[i].do(&o)
				if err != nil {
					errs[i] = fmt.Errorf("%w: session %d request %d: %v", errCheck, i, j, err)
					return
				}
				samples[i] = append(samples[i], sample{at: due.Sub(start), lat: time.Since(due), read: o.read})
				switch {
				case chk == nil:
				case o.read:
					chk.endRead(&o, low, outs)
				default:
					chk.endWrite(&o, outs)
				}
			}
		}(i)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	for i := range sess {
		p.samples = append(p.samples, samples[i]...)
		p.late = append(p.late, lates[i]...)
		if errs[i] != nil {
			p.failed++
		}
	}
	p.requests = int64(len(p.samples)) + p.failed
	for _, err := range errs {
		if err != nil {
			return p, err
		}
	}
	if rate > 0 {
		for i := range sess {
			last, err := checkBacklog(backlog[i])
			p.backlog = max(p.backlog, last)
			if err != nil {
				return p, fmt.Errorf("session %d: %w", i, err)
			}
		}
	}
	return p, nil
}

// maxBacklog is how far behind its schedule a paced session may end up
// before the phase counts as overloaded: at a third of capacity the schedule
// catches up after every stall, so a backlog this large in the last
// quarter means the offered rate is above what the server sustains.
const maxBacklog = 250 * time.Millisecond

// checkBacklog fails a paced phase whose lateness grew: the median backlog
// of its last quarter of sends exceeds both maxBacklog and that of its
// first quarter. It returns the last quarter's median backlog.
func checkBacklog(b []time.Duration) (time.Duration, error) {
	q := len(b) / 4
	if q == 0 {
		return 0, nil
	}
	first := median(append([]time.Duration(nil), b[:q]...))
	last := median(append([]time.Duration(nil), b[len(b)-q:]...))
	if last > maxBacklog && last > first {
		return last, fmt.Errorf("paced generator fell behind: median backlog %v in the last quarter, %v in the first", last, first)
	}
	return last, nil
}

// waitUntil returns at t without trusting the runtime's timers below a
// couple of milliseconds (a time.Sleep can overshoot by about 1 ms): it
// sleeps until about 2 ms before t, blocks in nanosleep(2) until about
// 100 µs before t, then yield-spins.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 3*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
	}
	if d := time.Until(t); d > 150*time.Microsecond {
		ts := syscall.NsecToTimespec(int64(d - 100*time.Microsecond))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up just spins longer
	}
	for time.Now().Before(t) {
		goruntime.Gosched()
	}
}

// quantile returns the q-quantile (0 < q ≤ 1) of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	i = min(max(i, 0), len(sorted)-1)
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
}

func median(d []time.Duration) time.Duration {
	sortDurations(d)
	return quantile(d, 0.5)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianFloat returns the median of xs.
func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
