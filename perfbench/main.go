// Command perfbench is the repository's benchmark: one served workload per
// run through a durable kvserverd primary with a synchronous standby
// (--trace 0), or the same seeded op stream driven in-process through each
// module's public functions to split the cost layer by layer (--trace 1).
//
// Usage (from the repository root; perfbench/run.sh builds both binaries):
//
//	perfbench --workload put-uniform|mput-batch|get-zipf --seed N --seconds S --trace 0|1
//	          [-root .] [-server .bench_build/perfbench/kvserverd]
//
// Human-readable lines go to standard output first; the last line is one
// JSON object {"correct", "attempted", "failed", "metrics"} whose metric
// names and units are the ones BENCHMARK.json lists. A failed correctness
// check prints the mismatch (naming the key), reports correct=false and
// exits 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
)

// Topology pinned for every workload: the daemon's default geometry, group
// commit anchoring epochs immediately, one synchronous standby, and two
// client sessions (one per CPU of the reference box).
const (
	shards   = 4
	procs    = 8
	sessions = 2
)

// serverFlags are the kvserverd flags every node of every workload runs
// with (-data, -addr and -replica-of are added per node).
var serverFlags = []string{"-shards", "4", "-procs", "8", "-group-commit=true", "-epoch-interval", "0"}

// metricDef is one reported metric: its name and unit exactly as
// BENCHMARK.json lists them.
type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics. Two more are printed on the summary
// lines but kept out of the result: error_ratio, which a correct run always
// reads as 0 (the result's attempted/failed carry it), and the paced p99
// and p999, which on a shared virtual disk follow its fsync stalls and move
// several-fold from one run to the next.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s"},
	{"p50_us", "us"},
	{"setup_s", "s"},
	{"recovery_s", "s"},
	{"rss_bytes_per_key", "bytes"},
	{"disk_bytes_per_key", "bytes"},
}

// perLayer are the --trace 1 metrics, grouped by the module whose public
// functions the benchmark timed.
var perLayer = []metricDef{
	{"kv.insert_us", "us"},
	{"kv.insert_slope_us_per_1k", "us"},
	{"kv.heap_bytes_per_key", "bytes"},
	{"space.alg1_bits_per_key", "bits"},
	{"shardkv.get_ns_p50", "ns"},
	{"shardkv.get_ns_p99", "ns"},
	{"shardkv.put_ns_p50", "ns"},
	{"shardkv.put_ns_p99", "ns"},
	{"shardkv.mget_ns_p50", "ns"},
	{"shardkv.mput_ns_p50", "ns"},
	{"shardkv.groups_per_batch", "count"},
	{"shardkv.restore_s", "s"},
	{"durable.open_s", "s"},
	{"durable.journal_ns", "ns"},
	{"durable.commit_ns_p50", "ns"},
	{"durable.commit_ns_p99", "ns"},
	{"durable.commits_per_epoch", "count"},
	{"durable.fsyncs_per_epoch", "count"},
	{"durable.fsync_ns_p50", "ns"},
	{"durable.bytes_written", "bytes"},
	{"durable.write_amp", "ratio"},
	{"durable.compactions", "count"},
	{"repl.apply_ns", "ns"},
	{"repl.msgs_per_epoch", "count"},
	{"repl.ack_wait_ns", "ns"},
	{"server.handle_ns", "ns"},
	{"client.rtt_ns", "ns"},
	{"gen.late_us_p99", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// metricValue is one entry of the result's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's metrics against a definition list, so a run
// can never print a name BENCHMARK.json does not know or omit one it does.
type report struct {
	defs []metricDef
	vals map[string]float64
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, vals: make(map[string]float64, len(defs))}
}

func (r *report) set(name string, v float64) { r.vals[name] = v }

// metrics returns the result's metrics object, failing if any defined
// metric was not measured or an undefined one was.
func (r *report) metrics() (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(r.defs))
	for _, d := range r.defs {
		v, ok := r.vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(r.vals) != len(r.defs) {
		return nil, fmt.Errorf("run measured %d metrics, %d are defined", len(r.vals), len(r.defs))
	}
	return out, nil
}

// print writes one "name value unit" line per metric, in definition order.
func (r *report) print() {
	for _, d := range r.defs {
		fmt.Printf("metric %-28s %14.4f %s\n", d.name, r.vals[d.name], d.unit)
	}
}

// errCheck marks a failed correctness check, as opposed to a benchmark
// that could not run at all.
var errCheck = errors.New("correctness check failed")

func main() {
	name := flag.String("workload", "", "workload name: put-uniform, mput-batch or get-zipf")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same op stream")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0 = served end-to-end run, 1 = in-process per-layer run")
	root := flag.String("root", ".", "repository checkout the benchmark runs in")
	serverBin := flag.String("server", "", "kvserverd binary built from the checkout (required with --trace 0)")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fail(fmt.Errorf("unknown --workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1"))
	}
	work := filepath.Join(*root, ".bench_build", "perfbench", "run-"+w.name)
	if err := os.RemoveAll(work); err != nil {
		fail(err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		fail(err)
	}
	defer os.RemoveAll(work)

	fmt.Printf("env: go=%s nproc=%d GOMAXPROCS=%d tree=%s\n",
		goruntime.Version(), goruntime.NumCPU(), goruntime.GOMAXPROCS(0), treeDigest(*root))
	fmt.Printf("workload: %s keys=%d getpct=%d batch=%d zipf=%g rate=%g/s sessions=%d seed=%d seconds=%d\n",
		w.name, w.keys, w.getPct, w.batch, w.theta, w.rate, sessions, *seed, *seconds)

	var (
		rep *report
		cnt counts
		err error
	)
	if *trace == 0 {
		if *serverBin == "" {
			fail(fmt.Errorf("--trace 0 needs -server (perfbench/run.sh passes it)"))
		}
		fmt.Printf("server: %s %s, data dirs under %s (disk, fsync per epoch)\n",
			*serverBin, strings.Join(serverFlags, " "), work)
		rep, cnt, err = runServed(w, *seed, *seconds, *serverBin, work)
	} else {
		rep, cnt, err = runTraced(w, *seed, *seconds, work)
	}
	correct := err == nil
	if err != nil && !errors.Is(err, errCheck) {
		fail(err)
	}
	if err != nil {
		fmt.Println("FAIL:", err)
	}
	res := result{Correct: correct, Attempted: cnt.attempted, Failed: cnt.failed}
	if correct {
		rep.print()
		if res.Metrics, err = rep.metrics(); err != nil {
			fail(err)
		}
	} else {
		res.Metrics = map[string]metricValue{}
	}
	if res.Attempted < 1 {
		fail(fmt.Errorf("no operations attempted"))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !correct {
		os.RemoveAll(work)
		os.Exit(1)
	}
}

// counts is the result's attempted/failed tally.
type counts struct{ attempted, failed int64 }

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// treeDigest identifies the source tree under test (the checkout is not a
// git repository): a SHA-256 over the paths and contents of its Go sources
// and module files.
func treeDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error { //nolint:errcheck
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
