package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"artmem/internal/exp"
	"artmem/internal/harness"
	"artmem/internal/policies"
)

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	defs := workloadDefs()
	if len(b.Workloads) != len(defs) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(b.Workloads), len(defs))
	}
	for i, w := range b.Workloads {
		if w.Name != defs[i].name || w.Why != defs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), perfbench %q (%q)", i, w.Name, w.Why, defs[i].name, defs[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts: BENCHMARK.json %d+%d, perfbench %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, perfbench %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, perfbench %+v", i, m, d)
		}
	}
}

// runTiny executes one workload at tinyScale and returns the exit code
// and the parsed result line.
func runTiny(t *testing.T, workload string, trace bool, corrupt string) (int, result) {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: 3, seconds: 0.05, trace: trace, commit: "test", scale: tinyScale, corrupt: corrupt}
	code := execute(o, &out, io.Discard)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, out.String())
	}
	return code, res
}

func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloadDefs() {
		for _, trace := range []bool{false, true} {
			code, res := runTiny(t, w.name, trace, "")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, result %+v", w.name, trace, code, res)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w.name, trace, d.name)
				case v.Unit != d.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.name, trace, d.name, v.Unit, d.unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, d.name, v.Value)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, v.Value)
				}
			}
		}
	}
}

func tinySim(t *testing.T, name string, seed uint64) *simBench {
	t.Helper()
	for _, w := range workloadDefs() {
		if w.name == name {
			return newSimBench(*w.sim, tinyScale, seed)
		}
	}
	t.Fatalf("no workload %s", name)
	return nil
}

func TestWrappersLeaveResultIdentical(t *testing.T) {
	for _, w := range workloadDefs() {
		if w.sim == nil {
			continue
		}
		b := tinySim(t, w.name, 3)
		direct, _ := b.replay(b.newWorkload(), b.c.cfg, nil)
		if direct.Accesses == 0 {
			t.Fatalf("%s: empty replay", w.name)
		}
		if err := sameResult(direct, b.untracedReplay().res); err != nil {
			t.Errorf("%s: batch clock changed the result: %v", w.name, err)
		}
		if err := sameResult(direct, b.tracedReplay(direct.Ticks, false).res); err != nil {
			t.Errorf("%s: layer wrappers changed the result: %v", w.name, err)
		}
	}
}

func TestMedianTimes(t *testing.T) {
	rep := func(idx float64, stamps ...int64) simReplay {
		// Each slice is handed over 1 ns after its Next call's entry.
		var ready []int64
		for _, s := range stamps[1 : len(stamps)-2] {
			ready = append(ready, s+1)
		}
		return simReplay{idx: idx, clock: &batchClock{stamps: stamps, ready: ready}}
	}
	// Two slices. At nominal host speed the intervals between stamps
	// are {6, 4, 26, 2}, {6, 14, 4, 1} and {3, 1, 3, 1}, and the slices'
	// latencies {2, 24}, {13.5, 3.5} and {0, 2}.
	reps := []simReplay{rep(2, 0, 3, 5, 18, 19), rep(0.5, 100, 112, 140, 148, 150), rep(1, 7, 10, 11, 14, 15)}
	for _, c := range []struct {
		k    int
		want []float64
	}{{1, []float64{6, 4, 4, 1}}, {2, []float64{10, 5}}, {4, []float64{25}}} {
		got, err := chunkTimes(reps, c.k)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("k=%d: got %v, %v; want %v", c.k, got, err, c.want)
		}
	}
	if got, err := sliceTimes(reps); err != nil || !reflect.DeepEqual(got, []float64{2, 3.5}) {
		t.Errorf("slices: got %v, %v; want [2 3.5]", got, err)
	}
	if _, err := chunkTimes(append(reps, rep(1, 0, 1, 2, 3)), 1); err == nil {
		t.Error("replays with different slicing accepted")
	}
}

func TestReportedBehaviourMatchesDirectHarnessCall(t *testing.T) {
	b := tinySim(t, "chain3-ycsb", 3)
	direct := harness.RunTiered(b.newWorkload(), func(bnd int) policies.EnvPolicy { return b.newPolicy(bnd) }, b.c.cfg)
	_, res := runTiny(t, "chain3-ycsb", false, "")
	if got, want := res.Metrics["sim_exec_ms"].Value, float64(direct.ExecNs)/1e6; got != want {
		t.Errorf("sim_exec_ms %v, direct harness.RunTiered %v", got, want)
	}
	if got, want := res.Metrics["dram_ratio"].Value, direct.DRAMRatio; got != want {
		t.Errorf("dram_ratio %v, direct harness.RunTiered %v", got, want)
	}
}

func TestCorruptedGatesFail(t *testing.T) {
	for _, c := range []struct {
		workload string
		trace    bool
		corrupt  string
	}{
		{"chain3-ycsb", true, "result"},
		{"serve-ycsb", false, "drop-batch"},
	} {
		code, res := runTiny(t, c.workload, c.trace, c.corrupt)
		if code == 0 || res.Correct {
			t.Errorf("%s with %s corrupted: exit %d, correct %v; want a failed run", c.workload, c.corrupt, code, res.Correct)
		}
	}
}

func TestPretrainMatchesTrainTables(t *testing.T) {
	p := tinyScale.pretrain
	mig, thr := pretrain(p)
	wantMig, wantThr := exp.TrainTables(exp.Options{Profile: p}, "Liblinear", 0)
	for _, pair := range [][2]interface{ MarshalBinary() ([]byte, error) }{{mig, wantMig}, {thr, wantThr}} {
		a, _ := pair[0].MarshalBinary()
		b, _ := pair[1].MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Fatal("pretrain tables differ from exp.TrainTables")
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if code := run([]string{"--workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
}
