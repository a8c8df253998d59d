package detectable_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMainsSmoke builds and runs every cmd/ and examples/ main with fast
// flags, asserting a zero exit status and non-empty output — so the
// binaries are exercised by the ordinary test gate instead of rotting
// untested.
func TestMainsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests spawn the go tool; skipped in -short mode")
	}
	cases := []struct {
		name string
		args []string
	}{
		{"quickstart", []string{"run", "./examples/quickstart"}},
		{"kvstore", []string{"run", "./examples/kvstore"}},
		{"bankcounter", []string{"run", "./examples/bankcounter"}},
		{"jobqueue", []string{"run", "./examples/jobqueue"}},
		{"configspace", []string{"run", "./cmd/configspace", "-maxn", "3"}},
		{"perturb", []string{"run", "./cmd/perturb", "-domain", "2", "-depth", "4"}},
		{"spacetable", []string{"run", "./cmd/spacetable"}},
		{"crashstorm", []string{"run", "./cmd/crashstorm", "-procs", "2", "-rounds", "2", "-ops", "3"}},
		{"loadgen", []string{"run", "./cmd/loadgen", "-mix", "crash-storm", "-procs", "2", "-shards", "2", "-keys", "8", "-dur", "200ms"}},
		{"kvserverd", []string{"run", "./cmd/kvserverd", "-addr", "127.0.0.1:0", "-shards", "2", "-procs", "2", "-dur", "300ms"}},
		{"kvbench", []string{"run", "./cmd/kvbench", "-selftest", "-shards", "2", "-conns", "1,2", "-dur", "150ms", "-keys", "32"}},
		{"loadgen-remote", []string{"run", "./cmd/loadgen", "-remote", "self", "-mix", "crash-storm", "-procs", "2", "-shards", "2", "-keys", "8", "-dur", "300ms"}},
		{"benchjson-gate", []string{"run", "./cmd/benchjson", "-checkonly"}},
		{"explore", []string{"run", "./cmd/explore", "-objects", "rcas,maxreg", "-procs", "2", "-ops", "1", "-crashes", "1", "-preempt", "1", "-budget", "10s"}},
		{"explore-list", []string{"run", "./cmd/explore", "-list"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", tc.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("go %v failed: %v\n%s", tc.args, err, out)
			}
			if len(out) == 0 {
				t.Fatalf("go %v produced no output", tc.args)
			}
		})
	}
}

// TestRestartStormSmoke runs a short whole-process crash-restart cycle:
// loadgen -restart-storm SIGKILLs a durable kvserverd mid-workload and
// fails on any cross-restart detectability violation. The CI wire-smoke
// job runs the full-length version; this pins the mode into the ordinary
// test gate.
func TestRestartStormSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes; skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "kvserverd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/kvserverd").CombinedOutput(); err != nil {
		t.Fatalf("build kvserverd: %v\n%s", err, out)
	}
	// Two storms: the default per-mutation commit schedule, and group
	// commit pinned at a tiny epoch interval so SIGKILLs land on live
	// epoch boundaries with parked replies — the release-on-epoch
	// invariant under a real whole-process crash.
	variants := []struct {
		name       string
		serverArgs string
	}{
		{"per-mutation", "-group-commit=false"},
		{"group-commit", "-epoch-interval 2ms"},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./cmd/loadgen",
				"-restart-storm", "-server-bin", bin, "-data", filepath.Join(dir, "data-"+v.name),
				"-mix", "crash-storm", "-procs", "2", "-shards", "2", "-keys", "8",
				"-dur", "1s", "-restarts", "2", "-restart-every", "400ms",
				"-server-args", v.serverArgs).CombinedOutput()
			if err != nil {
				t.Fatalf("restart-storm (%s) failed: %v\n%s", v.name, err, out)
			}
			if !strings.Contains(string(out), "zero violations") {
				t.Fatalf("restart-storm (%s) did not report zero violations:\n%s", v.name, out)
			}
		})
	}
}

// TestFailoverStormSmoke runs a short primary/backup failover cycle:
// loadgen -failover-storm SIGKILLs the primary mid-workload, promotes the
// warm standby and requires zero detectability violations plus at least
// one verdict served from the promoted replica's recovered outcome
// window. The CI wire-smoke job runs the full-length version; this pins
// the mode into the ordinary test gate.
func TestFailoverStormSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes; skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "kvserverd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/kvserverd").CombinedOutput(); err != nil {
		t.Fatalf("build kvserverd: %v\n%s", err, out)
	}
	out, err := exec.Command("go", "run", "./cmd/loadgen",
		"-failover-storm", "-server-bin", bin, "-data", filepath.Join(dir, "nodes"),
		"-mix", "crash-storm", "-procs", "2", "-shards", "2", "-keys", "8",
		"-dur", "2s", "-failovers", "2", "-failover-every", "500ms",
		"-server-args", "-epoch-interval 2ms").CombinedOutput()
	if err != nil {
		t.Fatalf("failover-storm failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "zero violations") {
		t.Fatalf("failover-storm did not report zero violations:\n%s", out)
	}
}

// TestKvserverdRefusesV1DataDir points kvserverd -data at a directory in
// the previous on-disk layout (MANIFEST version 1, one log per shard): the
// daemon must exit non-zero with an error naming both format versions
// instead of serving an empty store over the old data.
func TestKvserverdRefusesV1DataDir(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests spawn the go tool; skipped in -short mode")
	}
	dir := t.TempDir()
	for name, data := range map[string]string{
		"MANIFEST":      `{"version":1,"shards":2,"procs":2}` + "\n",
		"shard-000.log": "",
		"shard-001.log": "",
		"sessions.log":  "",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := exec.Command("go", "run", "./cmd/kvserverd", "-addr", "127.0.0.1:0",
		"-shards", "2", "-procs", "2", "-data", dir, "-dur", "100ms").CombinedOutput()
	if err == nil {
		t.Fatalf("kvserverd served a version-1 data directory:\n%s", out)
	}
	for _, want := range []string{"version 1", "version 2"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("kvserverd output does not name %q:\n%s", want, out)
		}
	}
}
