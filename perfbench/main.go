// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed wall-clock budget and prints every metric with
// its unit, ending with one JSON result line:
//
//	bash perfbench/run.sh --workload chain3-ycsb --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
// reports the per-layer metrics from a traced run, whose timing
// wrappers sit in this package around the calls into each layer, plus
// the tracing overhead against an untraced run of the same length.
// The program drives the repository only through harness.Run and
// harness.RunTiered (simulator) and serve.NewServer, serve.Dial and
// Client.SendAccessBatch over a loopback core.System (serving). Any
// failed correctness gate prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"artmem/internal/harness"
	"artmem/internal/workloads"
)

// scale sizes every workload. benchScale is what the command runs;
// the self-test uses tinyScale.
type scale struct {
	// pretrain is the fixed Q-table pretraining profile, independent of
	// the workload seed and run length.
	pretrain workloads.Profile
	// div and app size the replayed trace: the footprint divisor and
	// the application trace cap.
	div int64
	app int64
	// serveDiv and servePerClient size each serving client's YCSB trace:
	// footprint divisor and length cap in records.
	serveDiv       int64
	servePerClient int64
	// setups is how many times set-up runs; setup_s is their median.
	setups int
}

var benchScale = scale{
	pretrain:       workloads.Profile{Div: 128, PatternAccesses: 12_000_000, AppAccesses: 1_500_000, Seed: 1},
	div:            128,
	app:            8_000_000,
	serveDiv:       256,
	servePerClient: 4_000_000,
	setups:         3,
}

var tinyScale = scale{
	pretrain:       workloads.Profile{Div: 1024, PatternAccesses: 200_000, AppAccesses: 100_000, Seed: 1},
	div:            1024,
	app:            200_000,
	serveDiv:       1024,
	servePerClient: 16_384,
	setups:         1,
}

// workloadDef is one named workload and the reason it exists.
type workloadDef struct {
	name string
	why  string
	sim  *simCase // nil for the serving workload
}

// workloadDefs are the benchmark's workloads. Between them they drive
// every layer: the simulator workload the workloads, memsim, pebs, core
// and tier layers, the serving workload serve and the live agent
// threads. There are only two because on a shared 2-vCPU host each
// workload needs long runs for steady figures; MASIM S2 on the plain or
// the 8-shard machine would drive no layer these two do not.
func workloadDefs() []workloadDef {
	const chain = "DRAM:cap=12.5%/CXL:cap=25%/PM"
	return []workloadDef{
		{name: "chain3-ycsb", why: "YCSB on a DRAM/CXL/PM chain with shadow copies and one agent per boundary: the only workload using tier and BoundaryHub",
			sim: &simCase{spec: "YCSB", cfg: harness.Config{TierChain: chain, NonExclusive: true}}},
		{name: "serve-ycsb", why: "YCSB batches over loopback TCP into a live core.System: the only workload using serve and the agent threads"},
	}
}

// options is one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	commit   string
	scale    scale
	// corrupt breaks one correctness gate on purpose, for the self-test:
	// "result" replays the traced run on another seed's trace,
	// "drop-batch" withholds one serving batch.
	corrupt string
}

func main() {
	// One P: the simulator's trace producer, the GC, the serving clients,
	// server and agent goroutines all share one core. On a shared 2-vCPU
	// host the second vCPU's availability comes and goes with the other
	// tenants, and anything spread over both measured it more than the
	// program; on one P the host's speed is what the reference probes
	// take out (hostref.go).
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line and executes; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{scale: benchScale}
	var seconds, trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&seconds, "seconds", 10, "measured wall-clock seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	fs.StringVar(&o.commit, "commit", "unknown", "source revision recorded in the host fingerprint")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o.seconds, o.trace = float64(seconds), trace == 1
	return execute(o, stdout, stderr)
}

// execute runs one workload and prints the report and result line.
func execute(o options, stdout, stderr io.Writer) int {
	var def *workloadDef
	for _, d := range workloadDefs() {
		if d.name == o.workload {
			d := d
			def = &d
		}
	}
	if def == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	fp := hostFingerprint(o.commit)
	fp.Workload, fp.Seed, fp.Seconds = o.workload, o.seed, int(o.seconds)
	if o.trace {
		fp.Trace = 1
	}

	var m measurement
	var err error
	if def.sim != nil {
		m, err = measureSim(o, *def.sim, &fp)
	} else {
		m, err = measureServe(o, &fp)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		m.gateErr = err
	}
	res := result{Correct: m.gateErr == nil, Attempted: m.attempted, Failed: m.failed}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	if o.trace {
		res.Metrics = fill(perLayer, m.raw)
	} else {
		res.Metrics = fill(endToEnd, m.raw)
	}
	report(stdout, fp, m, res, def.sim != nil)
	line, _ := json.Marshal(res) // plain structs of numbers and strings
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measurement is a workload's raw figures and gate outcome.
type measurement struct {
	raw       map[string]float64
	attempted int64
	failed    int64
	gateErr   error
	// notes are extra report lines (sample counts, layer self times).
	notes []string
}

// setupTimes are the set-ups' durations in seconds, raw and at nominal
// host speed.
type setupTimes struct{ raw, norm []float64 }

// timeSetup runs prep n times and returns the last prepared value and
// each set-up's duration. Each set-up is complete and independent, and
// is bracketed by reference probes, the one after it run before the
// cleanup prep may return.
func timeSetup[T any](ref *hostRef, n int, prep func() (T, func(), error)) (T, setupTimes, error) {
	var v T
	var ds setupTimes
	br := newBracket(ref)
	for i := 0; i < n; i++ {
		s := time.Now()
		var cleanup func()
		var err error
		if v, cleanup, err = prep(); err != nil {
			return v, ds, err
		}
		d := time.Since(s).Seconds()
		ds.raw = append(ds.raw, d)
		ds.norm = append(ds.norm, d*br.next())
		if cleanup != nil {
			cleanup()
		}
	}
	return v, ds, nil
}

// report prints the human-readable record: fingerprint, every metric
// with its unit, and the notes. pinned marks the deterministic metrics,
// which are pure functions of the seed on the simulator workloads.
func report(w io.Writer, fp fingerprint, m measurement, res result, pinned bool) {
	fpj, _ := json.Marshal(fp)
	fmt.Fprintf(w, "host %s\n", fpj)
	det := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		det[d.name] = d.det
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := res.Metrics[k]
		mark := ""
		if det[k] && pinned {
			mark = "  (deterministic)"
		}
		fmt.Fprintf(w, "  %-28s %14.6g %s%s\n", k, v.Value, v.Unit, mark)
	}
	for _, n := range m.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  attempted %d failed %d failed_share %.4g correct %v\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.Correct)
}
