package main

import (
	"fmt"
	"reflect"
	"time"

	"artmem/internal/core"
	"artmem/internal/harness"
	"artmem/internal/memsim"
	"artmem/internal/policies"
	"artmem/internal/rl"
	"artmem/internal/workloads"
)

// pretrain primes ArtMem's Q-tables the way exp.TrainTables does — four
// Liblinear replays at rising DRAM scarcity, each agent starting from the
// previous one's tables — but without TrainTables' in-process memo, so
// every set-up pays the full cost.
func pretrain(p workloads.Profile) (mig, thr *rl.Table) {
	spec, err := workloads.ByName("Liblinear")
	if err != nil {
		panic(err) // the registry always has Liblinear
	}
	for round, r := range []harness.Ratio{{Fast: 1, Slow: 1}, {Fast: 1, Slow: 2}, {Fast: 1, Slow: 8}, {Fast: 1, Slow: 16}} {
		pol := core.New(core.Config{Seed: p.Seed + uint64(round), PretrainedMig: mig, PretrainedThr: thr})
		harness.Run(spec.New(p), pol, harness.Config{PageSize: p.PageSize(), Ratio: r})
		mig, thr = pol.QTables()
	}
	return mig, thr
}

// simCase is one simulator workload: a registry trace replayed under
// pretrained ArtMem through harness.RunTiered, on the tier chain
// cfg.TierChain with one agent per tier boundary.
type simCase struct {
	spec string
	cfg  harness.Config
}

// simBench holds a simulator workload's prepared inputs.
type simBench struct {
	c        simCase
	prof     workloads.Profile
	mig, thr *rl.Table
}

// newSimBench prepares workload c at scale sc for one seed: the trace
// profile, and Q-tables freshly pretrained with the fixed profile.
func newSimBench(c simCase, sc scale, seed uint64) *simBench {
	prof := workloads.Profile{Div: sc.div, AppAccesses: sc.app, Seed: seed}
	c.cfg.PageSize = prof.PageSize()
	mig, thr := pretrain(sc.pretrain)
	return &simBench{c: c, prof: prof, mig: mig, thr: thr}
}

func (b *simBench) newWorkload() workloads.Workload {
	spec, err := workloads.ByName(b.c.spec)
	if err != nil {
		panic(err)
	}
	return spec.New(b.prof)
}

// newPolicy builds boundary bnd's agent; seeds are decorrelated per
// boundary the way the tiers experiment does.
func (b *simBench) newPolicy(bnd int) *core.ArtMem {
	return core.New(core.Config{Seed: uint64(bnd), PretrainedMig: b.mig, PretrainedThr: b.thr})
}

// replay runs one harness call on w under cfg. With clk set, each
// agent's construction is timed into clk and the agent is wrapped in a
// tracedPolicy before harness sees it; the agents are returned
// unwrapped for their counters.
func (b *simBench) replay(w workloads.Workload, cfg harness.Config, clk *layerClock) (harness.Result, []*core.ArtMem) {
	var agents []*core.ArtMem
	mk := func(bnd int) policies.EnvPolicy {
		if clk == nil {
			a := b.newPolicy(bnd)
			agents = append(agents, a)
			return a
		}
		s := nanotime()
		a := b.newPolicy(bnd)
		clk.buildNs += nanotime() - s
		agents = append(agents, a)
		return &tracedPolicy{EnvPolicy: a, clk: clk}
	}
	return harness.RunTiered(w, mk, cfg), agents
}

// clockBatch is the simulator's latency unit in accesses: small enough
// that a replay yields thousands of slices (so p99 has well over ten
// beyond it) and that a slice holding an inline policy tick stands out.
const clockBatch = 1024

// batchClock is the untraced run's only instrument. It hands harness
// each workload batch in slices of clockBatch accesses, in order, and
// stamps every Next call on entry, so consecutive stamps bracket one
// slice through generation, the memsim access path and any policy tick
// that fired inside it, and again when it hands a slice over, so a
// slice's latency — from handover to the next call — leaves out the
// wait for the trace. Re-slicing leaves the replay identical (the
// self-test pins the Result), so slice i does the same work in every
// replay of a seed; stamps go into preallocated slices so the clock
// allocates nothing while harness replays.
type batchClock struct {
	workloads.Workload
	rest   []workloads.Access
	stamps []int64 // entry of every Next call
	ready  []int64 // ready[i]: slice i handed over
}

func (c *batchClock) Next() ([]workloads.Access, bool) {
	c.stamps = append(c.stamps, nanotime())
	if len(c.rest) == 0 {
		b, ok := c.Workload.Next()
		if !ok {
			return nil, false
		}
		c.rest = b
	}
	n := min(len(c.rest), clockBatch)
	b := c.rest[:n]
	c.rest = c.rest[n:]
	c.ready = append(c.ready, nanotime())
	return b, true
}

var epoch = time.Now()

// nanotime reads the monotonic clock in nanoseconds.
func nanotime() int64 { return int64(time.Since(epoch)) }

// layerClock accumulates the traced run's spans around the calls
// harness makes into the workload and policy layers during one replay.
type layerClock struct {
	runStart  int64 // just before the harness call
	loopStart int64 // exit of the last AttachEnv: replay loop begins
	loopEnd   int64 // return of the Next that reported exhaustion
	runEnd    int64 // harness returned

	nextNs   int64
	buildNs  int64 // agent construction (core.New)
	attachNs int64
	closeNs  int64
	// periods holds one entry per decision period: the summed Tick
	// time of every agent ticked at the same virtual instant.
	periods  []int64
	lastTick int64
}

// tracedWorkload times Next and Close into a layerClock.
type tracedWorkload struct {
	workloads.Workload
	clk *layerClock
}

func (t *tracedWorkload) Next() ([]workloads.Access, bool) {
	s := nanotime()
	b, ok := t.Workload.Next()
	e := nanotime()
	t.clk.nextNs += e - s
	if !ok {
		t.clk.loopEnd = e
	}
	return b, ok
}

func (t *tracedWorkload) Close() {
	s := nanotime()
	t.Workload.Close()
	t.clk.closeNs += nanotime() - s
}

// tracedPolicy times AttachEnv and Tick into a layerClock and delegates
// everything else, so harness sees the agent unchanged.
type tracedPolicy struct {
	policies.EnvPolicy
	clk *layerClock
}

func (t *tracedPolicy) AttachEnv(env memsim.Env) {
	s := nanotime()
	t.EnvPolicy.AttachEnv(env)
	e := nanotime()
	t.clk.attachNs += e - s
	t.clk.loopStart = e
}

func (t *tracedPolicy) Tick(now int64) {
	s := nanotime()
	t.EnvPolicy.Tick(now)
	d := nanotime() - s
	if n := len(t.clk.periods); n > 0 && t.clk.lastTick == now {
		t.clk.periods[n-1] += d
	} else {
		t.clk.periods = append(t.clk.periods, d)
	}
	t.clk.lastTick = now
}

// simReplay is one timed replay's outcome.
type simReplay struct {
	res    harness.Result
	wallNs int64
	// idx is the host speed index during an untraced replay: the mean
	// of the reference probes run just before and just after it.
	idx    float64
	allocB uint64
	agents []*core.ArtMem
	clock  *batchClock // untraced replays
	layers *layerClock // traced replays
}

func (r simReplay) maccessPerS() float64 {
	return float64(r.res.Accesses) / float64(r.wallNs) * 1e3
}

// untracedReplay replays once with only the batch clock attached. The
// clock's first stamp is taken just before the harness call and its last
// just after, so its intervals cover the whole call: machine build up to
// the first Next, one interval per slice, and result assembly.
func (b *simBench) untracedReplay() simReplay {
	clk := &batchClock{Workload: b.newWorkload(), stamps: make([]int64, 0, 1<<15), ready: make([]int64, 0, 1<<15)}
	a0 := allocBytes()
	clk.stamps = append(clk.stamps, nanotime())
	res, agents := b.replay(clk, b.c.cfg, nil)
	clk.stamps = append(clk.stamps, nanotime())
	wall := clk.stamps[len(clk.stamps)-1] - clk.stamps[0]
	return simReplay{res: res, wallNs: wall, allocB: allocBytes() - a0, agents: agents, clock: clk}
}

// tracedReplay replays once with the layer wrappers attached. invariants
// turns on harness's per-tick CheckInvariants (the untimed gate replay).
func (b *simBench) tracedReplay(ticks int, invariants bool) simReplay {
	clk := &layerClock{periods: make([]int64, 0, ticks+16)}
	w := &tracedWorkload{Workload: b.newWorkload(), clk: clk}
	cfg := b.c.cfg
	cfg.CheckInvariants = invariants
	clk.runStart = nanotime()
	res, agents := b.replay(w, cfg, clk)
	clk.runEnd = nanotime()
	return simReplay{res: res, wallNs: clk.runEnd - clk.runStart, agents: agents, layers: clk}
}

// sameResult reports whether two replays of one trace agree field for
// field, Tiers included.
func sameResult(a, b harness.Result) error {
	if reflect.DeepEqual(a, b) {
		return nil
	}
	return fmt.Errorf("harness results differ:\n  %+v\n  %+v", a, b)
}

// medianChunk is how many consecutive batch-clock intervals form one
// chunk of the throughput estimate: 64 slices, four of the 16384-access
// batches the kvstore substrate's producer goroutine hands over, so
// every chunk pays for generating the same batches.
const medianChunk = 64

// medianOver returns, for each i < n, the median over the replays of
// replay r's time d(r.clock, i) in ns brought to nominal host speed
// with r's speed index. Every replay of a seed does the same work in
// the same intervals, so this is the interval's cost at nominal host
// speed, steady against the host's drift (the index) and its swings
// within seconds (the median).
func medianOver(reps []simReplay, n int, d func(c *batchClock, i int) int64) ([]float64, error) {
	ns := len(reps[0].clock.stamps)
	out := make([]float64, n)
	ts := make([]float64, len(reps))
	for i := range out {
		for k, r := range reps {
			if len(r.clock.stamps) != ns {
				return nil, fmt.Errorf("replays sliced differently: %d and %d clock stamps", ns, len(r.clock.stamps))
			}
			ts[k] = float64(d(r.clock, i)) * r.idx
		}
		out[i] = median(ts)
	}
	return out, nil
}

// chunkTimes cuts the intervals between consecutive clock stamps into
// groups of k and returns each group's median time (medianOver).
func chunkTimes(reps []simReplay, k int) ([]float64, error) {
	last := len(reps[0].clock.stamps) - 1
	return medianOver(reps, (last+k-1)/k, func(c *batchClock, g int) int64 {
		return c.stamps[min((g+1)*k, last)] - c.stamps[g*k]
	})
}

// sliceTimes returns each slice's median latency (medianOver): from the
// Next call that handed it over returning to the next Next call.
// Slice i is handed over by call i+1, whose entry is stamps[i+1] (the
// first stamp is taken before the harness call).
func sliceTimes(reps []simReplay) ([]float64, error) {
	return medianOver(reps, len(reps[0].clock.ready), func(c *batchClock, i int) int64 {
		return c.stamps[i+2] - c.ready[i]
	})
}

// simE2E fills the end-to-end metrics from untraced replays, at nominal
// host speed. Throughput is the accesses over the sum of the chunks'
// median times (chunkTimes with medianChunk), which cover the whole
// harness call; the batch quantiles are taken over the slices' median
// latencies (sliceTimes).
func simE2E(raw map[string]float64, reps []simReplay) error {
	chunks, err := chunkTimes(reps, medianChunk)
	if err != nil {
		return err
	}
	var total float64
	for _, d := range chunks {
		total += d
	}
	slices, err := sliceTimes(reps)
	if err != nil {
		return err
	}
	lat := make([]float64, len(slices))
	for i, d := range slices {
		lat[i] = d / 1e6
	}
	var alloc []float64
	for _, r := range reps {
		alloc = append(alloc, float64(r.allocB)/float64(r.res.Accesses))
	}
	raw["maccess_per_s"] = float64(reps[0].res.Accesses) / total * 1e3
	raw["alloc_b_per_access"] = median(alloc)
	raw["batch_p50_ms"] = quantile(lat, 0.50)
	raw["batch_p99_ms"] = quantile(lat, 0.99)
	raw["batch_samples"] = float64(len(lat))
	raw["sim_exec_ms"] = float64(reps[0].res.ExecNs) / 1e6
	raw["dram_ratio"] = reps[0].res.DRAMRatio
	return nil
}

// simLayers fills the per-layer metrics from traced replays and returns
// the layer accounting as report lines. The blocking path is
// harness.RunTiered's wall time. workloads is the time in Next and
// Close; core the time constructing, attaching and ticking the agents;
// memsim harness.RunTiered's self time inside the replay loop (the loop
// minus its Next and Tick calls). The unattributed residual is the rest
// of the wall time — harness.RunTiered building the machine and
// assembling the Result — so the four buckets sum to the blocking path
// exactly.
func simLayers(raw map[string]float64, reps []simReplay) []string {
	var run, next, coreNs, loopSelf float64
	var accesses float64
	var periods []float64
	for _, r := range reps {
		c := r.layers
		run += float64(r.wallNs)
		next += float64(c.nextNs + c.closeNs)
		var tick int64
		for _, p := range c.periods {
			tick += p
			periods = append(periods, float64(p)/1e3)
		}
		coreNs += float64(c.buildNs + c.attachNs + tick)
		loopSelf += float64(c.loopEnd - c.loopStart - c.nextNs - tick)
		accesses += float64(r.res.Accesses)
	}
	outside := run - next - coreNs - loopSelf
	raw["workloads.next_ns"] = next / accesses
	raw["workloads.share"] = next / run
	raw["memsim.access_ns"] = loopSelf / accesses
	raw["memsim.share"] = loopSelf / run
	raw["core.tick_us"] = mean(periods)
	raw["core.tick_p99_us"] = quantile(periods, 0.99)
	raw["core.share"] = coreNs / run
	raw["trace.unattributed_share"] = outside / run
	notes := []string{fmt.Sprintf("layer accounting over %d traced replays, blocking path harness.RunTiered %.1f ms:", len(reps), run/1e6)}
	for _, l := range []struct {
		name string
		ns   float64
	}{{"workloads (Next, Close)", next}, {"core (New, Attach, Tick)", coreNs}, {"memsim (harness.RunTiered self, replay loop)", loopSelf}, {"unattributed (harness.RunTiered outside the loop)", outside}} {
		notes = append(notes, fmt.Sprintf("  %-44s self %10.2f ms  share %.4f", l.name, l.ns/1e6, l.ns/run))
	}

	// Counters are a pure function of the seed: take them from one replay.
	r := reps[0]
	res := r.res
	raw["memsim.cache_hit_ratio"] = 1 - ratio(float64(res.Misses), float64(res.Accesses))
	raw["memsim.promotions"] = float64(res.Promotions)
	raw["memsim.demotions"] = float64(res.Demotions)
	raw["memsim.migrated_mb"] = float64(res.MigratedBytes) / (1 << 20)
	raw["memsim.migration_failures"] = float64(res.MigrationFailures)
	raw["memsim.background_ms"] = res.BackgroundNs / 1e6
	raw["core.ticks"] = float64(res.Ticks)
	agentLayers(raw, r.agents)
	if ts := res.Tiers; ts != nil {
		raw["tier.discard_share"] = ratio(float64(ts.ShadowDiscards), float64(res.Demotions))
		raw["tier.shadow_invalidates"] = float64(ts.ShadowInvalidates)
		raw["tier.shadow_reclaims"] = float64(ts.ShadowReclaims)
		raw["tier.b0_promotions"] = float64(ts.BoundaryPromotions[0])
		if len(ts.BoundaryPromotions) > 1 {
			raw["tier.b1_promotions"] = float64(ts.BoundaryPromotions[1])
		}
	}
	return notes
}

// agentLayers fills the sampler and decision metrics summed over the
// agents of one run. Call only once the agents are quiescent.
func agentLayers(raw map[string]float64, agents []*core.ArtMem) {
	var taken, dropped, decisions, attempted, promoted float64
	for _, a := range agents {
		st := a.Sampler().Stats()
		taken += float64(st.Taken)
		dropped += float64(st.Dropped)
		decisions += float64(a.Decisions())
		for _, ev := range a.Telemetry().Trace.Events(0) {
			attempted += float64(ev.Attempted)
			promoted += float64(ev.Promoted)
		}
	}
	raw["pebs.samples"] = taken
	raw["pebs.drop_ratio"] = ratio(dropped, taken)
	raw["core.decisions"] = decisions
	raw["core.promoted_per_attempt"] = ratio(promoted, attempted)
}
