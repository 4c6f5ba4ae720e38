package harness

import (
	"fmt"

	"artmem/internal/faultinject"
	"artmem/internal/memsim"
	"artmem/internal/policies"
	"artmem/internal/tier"
	"artmem/internal/workloads"
)

// TierStats captures the per-tier and per-boundary outcome of an
// N-tier (RunTiered) run. Slices are indexed by tier (0 = fastest) and
// by boundary (b = the edge between tiers b and b+1).
type TierStats struct {
	// Names are the chain tier names ("DRAM", "CXL", ...).
	Names []string
	// Used, Capacity, and ShadowPages are the end-of-run occupancy per
	// tier; Accesses the cache-missing accesses each tier served.
	Used        []int
	Capacity    []int
	ShadowPages []int
	Accesses    []uint64
	// BoundaryPromotions/Demotions/Discards are cumulative migration
	// counts per boundary; Discards is the subset of demotions that
	// completed as free shadow discards (non-exclusive mode).
	BoundaryPromotions []uint64
	BoundaryDemotions  []uint64
	BoundaryDiscards   []uint64
	// Shadow-transaction totals (all zero in exclusive mode).
	ShadowDiscards    uint64
	ShadowInvalidates uint64
	ShadowReclaims    uint64
}

// chainMachineConfig derives the memsim configuration of a TierChain
// run: the shared defaults from machineConfig with the parsed chain
// installed. Percentage capacities in the spec resolve against the
// workload footprint inside memsim.NewMachine.
func chainMachineConfig(foot int64, cfg Config) (memsim.Config, Config) {
	mcfg, cfg := machineConfig(foot, cfg)
	ch, err := tier.ParseChain(cfg.TierChain)
	if err != nil {
		panic(fmt.Sprintf("harness: bad tier chain %q: %v", cfg.TierChain, err))
	}
	mcfg.Chain = ch
	mcfg.NonExclusive = cfg.NonExclusive
	return mcfg, cfg
}

// RunTiered replays workload w on an N-tier chain machine (Config.
// TierChain) with one two-tier policy agent per tier boundary,
// decomposed through a memsim.BoundaryHub. mk constructs boundary b's
// agent — callers decorrelate seeds per boundary there, the way
// core.TieredSystem offsets per-boundary seeds. The replay loop, purity
// contract, and Result semantics match Run; Result.Tiers additionally
// carries the per-tier occupancy and per-boundary migration outcome.
//
// A two-tier chain is the compatibility control: one boundary, one
// agent, and (for a chain carrying the default tier parameters)
// results byte-identical to Run on the legacy machine — pinned by
// TestRunTieredTwoTierMatchesRun.
func RunTiered(w workloads.Workload, mk func(b int) policies.EnvPolicy, cfg Config) Result {
	defer w.Close()
	if cfg.TierChain == "" {
		panic("harness: RunTiered requires Config.TierChain")
	}
	mcfg, cfg := chainMachineConfig(w.FootprintBytes(), cfg)
	m := memsim.NewMachine(mcfg)
	var inj *faultinject.Injector
	if cfg.Faults != nil {
		inj = faultinject.New(*cfg.Faults)
		m.SetFaultInjector(inj)
	}
	hub := memsim.NewBoundaryHub(m)
	var budgets *tier.Budgets
	if cfg.BoundaryBudget > 0 {
		budgets = tier.NewBudgets(hub.NumBoundaries(), cfg.BoundaryBudget)
		budgets.Reset()
		hub.SetBudgets(budgets)
	}
	agents := make([]policies.EnvPolicy, hub.NumBoundaries())
	var interval int64
	for b := range agents {
		agents[b] = mk(b)
		agents[b].AttachEnv(hub.View(b))
		if iv := agents[b].Interval(); iv > interval {
			interval = iv
		}
	}
	if interval <= 0 {
		interval = policies.DefaultTickInterval
	}

	res := Result{Workload: w.Name(), Policy: agents[0].Name(), Ratio: cfg.Ratio}
	nextTick := interval
	var prevMig uint64
	var prevFast, prevSlow uint64

	// tick runs one decision period: refill the per-boundary budgets,
	// then every boundary agent in ascending order — promotions into
	// tier b land before boundary b+1 considers what remains, so hot
	// pages relay up the chain deterministically.
	tick := func() {
		if budgets != nil {
			budgets.Reset()
		}
		now := m.Now()
		for _, a := range agents {
			a.Tick(now)
		}
	}

	for {
		batch, ok := w.Next()
		if !ok {
			break
		}
		for _, acc := range batch {
			m.Access(acc.Addr, acc.Write)
			if m.Now() >= nextTick {
				tick()
				res.Ticks++
				nextTick = m.Now() + interval
				if cfg.CheckInvariants && res.InvariantErr == nil {
					res.InvariantErr = m.CheckInvariants()
				}
				if cfg.CollectSeries {
					c := m.Counters()
					res.MigrationSeries.Append(m.Now(), float64(c.Migrations-prevMig))
					prevMig = c.Migrations
					df := c.FastAccesses - prevFast
					ds := c.SlowAccesses - prevSlow
					prevFast, prevSlow = c.FastAccesses, c.SlowAccesses
					if df+ds > 0 {
						res.RatioSeries.Append(m.Now(), float64(df)/float64(df+ds))
					}
				}
			}
		}
		res.Accesses += int64(len(batch))
	}

	c := m.Counters()
	res.ExecNs = m.Now()
	res.Misses = c.FastAccesses + c.SlowAccesses
	res.DRAMRatio = c.DRAMRatio()
	res.Migrations = c.Migrations
	res.Promotions = c.Promotions
	res.Demotions = c.Demotions
	res.MigratedBytes = c.MigratedBytes
	res.Faults = c.Faults
	res.MigrationFailures = c.MigrationFailures
	res.BackgroundNs = m.BackgroundNs()
	if inj != nil {
		res.FaultStats = inj.Stats()
	}
	if cfg.CheckInvariants && res.InvariantErr == nil {
		res.InvariantErr = m.CheckInvariants()
	}

	ts := &TierStats{
		ShadowDiscards:    c.ShadowDiscards,
		ShadowInvalidates: c.ShadowInvalidates,
		ShadowReclaims:    c.ShadowReclaims,
	}
	for t := 0; t < m.Tiers(); t++ {
		tid := memsim.TierID(t)
		ts.Names = append(ts.Names, m.TierName(tid))
		ts.Used = append(ts.Used, m.UsedPages(tid))
		ts.Capacity = append(ts.Capacity, m.CapacityPages(tid))
		ts.ShadowPages = append(ts.ShadowPages, m.ShadowPages(tid))
		ts.Accesses = append(ts.Accesses, m.TierAccesses(tid))
	}
	for b := 0; b < m.NumBoundaries(); b++ {
		bs := m.BoundaryStatsAt(b)
		ts.BoundaryPromotions = append(ts.BoundaryPromotions, bs.Promotions)
		ts.BoundaryDemotions = append(ts.BoundaryDemotions, bs.Demotions)
		ts.BoundaryDiscards = append(ts.BoundaryDiscards, bs.ShadowDiscards)
	}
	res.Tiers = ts
	return res
}
