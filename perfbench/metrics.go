package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"

	"artmem/internal/sched"
)

// metricDef is one metric the benchmark reports. The names, units and
// directions mirror BENCHMARK.json (the self-test pins the two
// together); det marks a metric that is a pure function of the seed on
// the simulator workloads, so any change in it is a behaviour change,
// never noise.
type metricDef struct {
	name   string
	unit   string
	better string
	det    bool
}

// endToEnd are the metrics a user of the system sees, reported by an
// untraced run (--trace 0) on every workload.
var endToEnd = []metricDef{
	{name: "maccess_per_s", unit: "M/s", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "batch_p50_ms", unit: "ms", better: "lower"},
	{name: "batch_p99_ms", unit: "ms", better: "lower"},
	{name: "sim_exec_ms", unit: "ms", better: "lower", det: true},
	{name: "dram_ratio", unit: "ratio", better: "higher", det: true},
	{name: "alloc_b_per_access", unit: "B", better: "lower", det: true},
}

// perLayer are the single-layer metrics, reported by a traced run
// (--trace 1) on every workload. A layer a workload does not drive
// reports 0. Counts are per replay (simulator) or per round (serving).
var perLayer = []metricDef{
	{name: "workloads.next_ns", unit: "ns", better: "lower"},
	{name: "workloads.share", unit: "share", better: "lower"},
	{name: "memsim.access_ns", unit: "ns", better: "lower"},
	{name: "memsim.share", unit: "share", better: "lower"},
	{name: "memsim.cache_hit_ratio", unit: "ratio", better: "higher", det: true},
	{name: "memsim.promotions", unit: "count", better: "lower", det: true},
	{name: "memsim.demotions", unit: "count", better: "lower", det: true},
	{name: "memsim.migrated_mb", unit: "MB", better: "lower", det: true},
	{name: "memsim.migration_failures", unit: "count", better: "lower", det: true},
	{name: "memsim.background_ms", unit: "ms", better: "lower", det: true},
	{name: "pebs.samples", unit: "count", better: "lower", det: true},
	{name: "pebs.drop_ratio", unit: "ratio", better: "lower", det: true},
	{name: "core.tick_us", unit: "us", better: "lower"},
	{name: "core.tick_p99_us", unit: "us", better: "lower"},
	{name: "core.ticks", unit: "count", better: "lower", det: true},
	{name: "core.share", unit: "share", better: "lower"},
	{name: "core.promoted_per_attempt", unit: "ratio", better: "higher", det: true},
	{name: "core.control_busy_share", unit: "share", better: "lower"},
	{name: "core.sampling_passes", unit: "count", better: "higher"},
	{name: "core.migration_passes", unit: "count", better: "higher"},
	{name: "core.decisions", unit: "count", better: "higher", det: true},
	{name: "tier.discard_share", unit: "share", better: "higher", det: true},
	{name: "tier.shadow_invalidates", unit: "count", better: "lower", det: true},
	{name: "tier.shadow_reclaims", unit: "count", better: "lower", det: true},
	{name: "tier.b0_promotions", unit: "count", better: "lower", det: true},
	{name: "tier.b1_promotions", unit: "count", better: "lower", det: true},
	{name: "serve.send_us", unit: "us", better: "lower"},
	{name: "serve.decode_us", unit: "us", better: "lower"},
	{name: "serve.queue_us", unit: "us", better: "lower"},
	{name: "serve.queue_p99_us", unit: "us", better: "lower"},
	{name: "serve.stall_us", unit: "us", better: "lower"},
	{name: "serve.coalesce_us", unit: "us", better: "lower"},
	{name: "serve.apply_us", unit: "us", better: "lower"},
	{name: "serve.apply_p99_us", unit: "us", better: "lower"},
	{name: "serve.ack_us", unit: "us", better: "lower"},
	{name: "serve.unattributed_us", unit: "us", better: "lower"},
	{name: "proc.gc_cpu_share", unit: "share", better: "lower"},
	{name: "proc.cpu_s_per_maccess", unit: "s/Macc", better: "lower"},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "trace.unattributed_share", unit: "share", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
	{name: "host.speed_index", unit: "ratio", better: "higher"},
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the command prints: the contract's four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics map for defs from raw values. A def missing
// from raw is reported as 0, which the self-test rules out for the
// end-to-end set.
func fill(defs []metricDef, raw map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: raw[d.name], Unit: d.unit}
	}
	return out
}

// quantile returns the q-quantile of xs by nearest rank on a sorted
// copy; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fingerprint identifies the host, toolchain and code a record came
// from, so numbers from different hosts are never compared.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_stamp"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Params     string `json:"params"`
}

func hostFingerprint(commit string) fingerprint {
	stamp, err := sched.SourceStamp("internal", "perfbench")
	if err != nil {
		stamp = "unknown"
	}
	return fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Source:     stamp,
	}
}

// cpuModel reads the CPU model name from the kernel's cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procSample is a snapshot of the process's CPU and GC counters; the
// difference of two samples covers a measured window.
type procSample struct {
	cpuS     float64
	gcCPUS   float64
	allCPUS  float64
	maxRSSMB float64
}

var procMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	ms := append([]metrics.Sample(nil), procMetrics...)
	metrics.Read(ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procSample{
		cpuS:     tv(ru.Utime) + tv(ru.Stime),
		gcCPUS:   ms[0].Value.Float64(),
		allCPUS:  ms[1].Value.Float64(),
		maxRSSMB: float64(ru.Maxrss) / 1024, // Linux reports kilobytes
	}
}

// allocBytes returns the bytes allocated on the heap so far.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// procLayer fills the proc.* metrics for the window a..b in which
// accesses were served.
func procLayer(raw map[string]float64, a, b procSample, accesses float64) {
	raw["proc.gc_cpu_share"] = ratio(b.gcCPUS-a.gcCPUS, b.allCPUS-a.allCPUS)
	raw["proc.cpu_s_per_maccess"] = ratio(b.cpuS-a.cpuS, accesses/1e6)
	raw["proc.peak_rss_mb"] = b.maxRSSMB
}
