package main

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"detectable/internal/runtime"
)

// TestStreamDeterministic pins that a seed fixes the op stream: the same
// seed hashes identically across generations, another seed does not.
func TestStreamDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := streamHash(w, 7, 5000), streamHash(w, 7, 5000)
		if a != b {
			t.Errorf("%s: seed 7 gave two streams (%x, %x)", w.name, a, b)
		}
		if c := streamHash(w, 8, 5000); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same stream %x", w.name, a)
		}
	}
}

// TestStreamShape checks the generator's contract: writes stay in the
// session's key partition with increasing values, batch keys are
// distinct, and the read share is near the workload's.
func TestStreamShape(t *testing.T) {
	for _, w := range workloads {
		for s := 0; s < sessions; s++ {
			st := newStream(w, 3, s)
			last := map[int]int{}
			reads := 0
			const n = 20000
			var o op
			for i := 0; i < n; i++ {
				st.next(&o)
				if want := max(w.batch, 1); len(o.keys) != want {
					t.Fatalf("%s: op has %d keys, want %d", w.name, len(o.keys), want)
				}
				seen := map[int]bool{}
				for j, k := range o.keys {
					if k < 0 || k >= w.keys || seen[k] {
						t.Fatalf("%s: key %d out of range or repeated in one request", w.name, k)
					}
					seen[k] = true
					if o.read {
						continue
					}
					if k%sessions != s {
						t.Fatalf("%s: session %d wrote key %d of another session", w.name, s, k)
					}
					if prev := max(last[k], initialValue); o.vals[j] != prev+1 {
						t.Fatalf("%s: key %d written %d after %d", w.name, k, o.vals[j], prev)
					}
					last[k] = o.vals[j]
				}
				if o.read {
					reads++
				}
			}
			if got := 100 * reads / n; got < w.getPct-2 || got > w.getPct+2 {
				t.Errorf("%s: %d%% reads, want about %d%%", w.name, got, w.getPct)
			}
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON pins that the names and units the runs
// print are exactly the ones BENCHMARK.json declares, and its workloads
// are the ones the benchmark knows.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: benchmark prints %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: benchmark prints %s (%s), BENCHMARK.json lists %s (%s)",
					what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestReportRefusesMissingMetric pins that a run cannot print a result
// that omits a declared metric.
func TestReportRefusesMissingMetric(t *testing.T) {
	r := newReport(endToEnd)
	for _, d := range endToEnd[1:] {
		r.set(d.name, 1)
	}
	if _, err := r.metrics(); err == nil || !strings.Contains(err.Error(), endToEnd[0].name) {
		t.Fatalf("metrics() = %v, want an error naming %s", err, endToEnd[0].name)
	}
}

// model replays w's op stream into a checker as if every request were
// acknowledged, and returns it with the store state those writes leave.
func model(w spec, ops int) (*checker, map[int]int64) {
	chk := newChecker(keyNames(w.keys))
	chk.setInitial()
	state := map[int]int64{}
	for k := 0; k < w.keys; k++ {
		state[k] = initialValue
	}
	for s := 0; s < sessions; s++ {
		st := newStream(w, 11, s)
		var o op
		for i := 0; i < ops; i++ {
			st.next(&o)
			if o.read {
				continue
			}
			chk.beginWrite(&o)
			outs := make([]runtime.Outcome[int], len(o.keys))
			for j := range outs {
				outs[j].Status = runtime.StatusOK
			}
			chk.endWrite(&o, outs)
			for j, k := range o.keys {
				state[k] = int64(o.vals[j])
			}
		}
	}
	return chk, state
}

func storeReader(state map[int]int64) func([]int) ([]int64, error) {
	return func(keys []int) ([]int64, error) {
		vals := make([]int64, len(keys))
		for i, k := range keys {
			vals[i] = state[k]
		}
		return vals, nil
	}
}

// TestVerifierConvictsDroppedWrite is the must-convict case: a store that
// lost one acknowledged write — it still holds the key's previous value —
// fails verification, and the failure names the key.
func TestVerifierConvictsDroppedWrite(t *testing.T) {
	for _, w := range workloads {
		chk, state := model(w, 500)
		if err := chk.verifyAll("intact", storeReader(state)); err != nil {
			t.Fatalf("%s: intact store failed verification: %v", w.name, err)
		}
		victim := -1
		for k, v := range state {
			if v > initialValue && (victim < 0 || k < victim) {
				victim = k
			}
		}
		if victim < 0 {
			t.Fatalf("%s: the stream wrote nothing", w.name)
		}
		state[victim]--
		err := chk.verifyAll("dropped write", storeReader(state))
		if !errors.Is(err, errCheck) || !strings.Contains(err.Error(), keyName(victim)+" ") {
			t.Fatalf("%s: dropping the last write of %s gave %v, want a check failure naming it", w.name, keyName(victim), err)
		}
	}
}

// TestReadCheckConvictsStaleRead pins the per-request check: a read that
// returns a value older than one already acknowledged is flagged, and one
// within the window is not.
func TestReadCheckConvictsStaleRead(t *testing.T) {
	w, _ := workloadByName("put-uniform")
	chk := newChecker(keyNames(w.keys))
	chk.setInitial()
	write := op{keys: []int{4}, vals: []int{2}}
	chk.beginWrite(&write)
	chk.endWrite(&write, []runtime.Outcome[int]{{Status: runtime.StatusOK}})

	read := op{read: true, keys: []int{4}}
	low := make([]int64, 1)
	chk.readLow(&read, low)
	chk.endRead(&read, low, []runtime.Outcome[int]{{Status: runtime.StatusOK, Resp: 2}})
	if err := chk.err(); err != nil {
		t.Fatalf("fresh read flagged: %v", err)
	}
	chk.endRead(&read, low, []runtime.Outcome[int]{{Status: runtime.StatusOK, Resp: initialValue}})
	if err := chk.err(); !errors.Is(err, errCheck) || !strings.Contains(err.Error(), keyName(4)) {
		t.Fatalf("stale read gave %v, want a check failure naming %s", err, keyName(4))
	}
}
