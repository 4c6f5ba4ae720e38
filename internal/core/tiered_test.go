package core

import (
	"sort"
	"strings"
	"testing"
	"time"

	"artmem/internal/memsim"
	"artmem/internal/tier"
)

func testTieredConfig(t *testing.T, spec string, nonExclusive bool) TieredSystemConfig {
	t.Helper()
	ch, err := tier.ParseChain(spec)
	if err != nil {
		t.Fatalf("ParseChain(%q): %v", spec, err)
	}
	mcfg := memsim.DefaultConfig(64*64*1024, 0, 64*1024)
	mcfg.CacheLines = 0
	mcfg.Chain = ch
	mcfg.NonExclusive = nonExclusive
	return TieredSystemConfig{
		Machine:           mcfg,
		Policy:            Config{SamplePeriod: 1},
		SamplingInterval:  500 * time.Microsecond,
		MigrationInterval: time.Millisecond,
	}
}

// tieredTick drives one sampling + decision period synchronously, the
// way the background threads would, without real timers.
func tieredTick(s *TieredSystem) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samplePass()
	s.migratePass()
}

// TestTieredSystemRelaysHotPages pins the boundary relay: under a
// skewed workload on a 3-tier chain, per-boundary agents promote the
// hot set up the chain — both boundaries see migrations, and hot pages
// end above where first touch placed them.
func TestTieredSystemRelaysHotPages(t *testing.T) {
	s := NewTieredSystem(testTieredConfig(t, "DRAM:cap=16/CXL:cap=16/PM", false))
	if s.NumBoundaries() != 2 {
		t.Fatalf("boundaries %d, want 2", s.NumBoundaries())
	}
	const ps = 64 * 1024
	// Touch everything once (fills DRAM, CXL, then PM), then hammer a
	// hot set that first touch left in PM.
	for p := uint64(0); p < 64; p++ {
		s.Access(p*ps, false)
	}
	hot := []uint64{40, 41, 42, 43, 44, 45, 46, 47} // PM residents
	for round := 0; round < 60; round++ {
		for rep := 0; rep < 8; rep++ {
			for _, p := range hot {
				s.Access(p*ps, false)
			}
		}
		tieredTick(s)
	}
	b0 := s.Machine().BoundaryStatsAt(0)
	b1 := s.Machine().BoundaryStatsAt(1)
	if b1.Promotions == 0 {
		t.Fatalf("boundary PM→CXL never promoted: %+v / %+v", b0, b1)
	}
	climbed := 0
	for _, p := range hot {
		if s.Machine().TierOf(memsim.PageID(p)) < 2 {
			climbed++
		}
	}
	if climbed == 0 {
		t.Fatalf("no hot page left PM (b0 %+v, b1 %+v)", b0, b1)
	}
	if err := s.Machine().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTieredBoundaryBudgetCapsMigrations bounds each boundary's
// per-period migrations at the configured budget.
func TestTieredBoundaryBudgetCapsMigrations(t *testing.T) {
	cfg := testTieredConfig(t, "DRAM:cap=16/CXL:cap=16/PM", false)
	cfg.BoundaryBudget = 2
	s := NewTieredSystem(cfg)
	const ps = 64 * 1024
	for p := uint64(0); p < 64; p++ {
		s.Access(p*ps, false)
	}
	var prev [2]uint64
	for round := 0; round < 40; round++ {
		for rep := 0; rep < 8; rep++ {
			for p := uint64(32); p < 56; p++ {
				s.Access(p*ps, false)
			}
		}
		tieredTick(s)
		for b := 0; b < 2; b++ {
			st := s.Machine().BoundaryStatsAt(b)
			moved := st.Promotions + st.Demotions - prev[b]
			if moved > 2 {
				t.Fatalf("round %d boundary %d moved %d pages, budget 2", round, b, moved)
			}
			prev[b] = st.Promotions + st.Demotions
		}
	}
}

// TestTieredNonExclusiveRunsClean smoke-tests the shadow path under the
// full runtime: agents promote and demote with shadows live, and the
// machine invariants (which recount shadow frames) hold throughout.
func TestTieredNonExclusiveRunsClean(t *testing.T) {
	s := NewTieredSystem(testTieredConfig(t, "DRAM:cap=16/CXL:cap=16/PM", true))
	const ps = 64 * 1024
	for p := uint64(0); p < 64; p++ {
		s.Access(p*ps, false)
	}
	for round := 0; round < 50; round++ {
		base := uint64(16 * (round % 3)) // shift the hot set across tiers
		for rep := 0; rep < 8; rep++ {
			for p := base; p < base+16; p++ {
				s.Access(p*ps, round%5 == 0) // occasional writes invalidate
			}
		}
		tieredTick(s)
		if err := s.Machine().CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestTieredMetricsSchemaPinned pins the tier-labelled telemetry
// schema (ISSUE 10 satellite): the exact set of artmem_tier_*,
// artmem_boundary_*, and artmem_shadow_* series a 3-tier non-exclusive
// daemon exposes, in both the Prometheus text and JSON snapshot
// expositions. Series disappearing or labels drifting must fail
// loudly; additions extend this list deliberately.
func TestTieredMetricsSchemaPinned(t *testing.T) {
	s := NewTieredSystem(testTieredConfig(t, "DRAM:cap=16/CXL:cap=16/PM", true))
	for p := uint64(0); p < 64; p++ {
		s.Access(p*64*1024, false)
	}
	tieredTick(s)

	var sb strings.Builder
	if err := s.Telemetry().Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	prom := sb.String()
	snap := s.Telemetry().Registry.Snapshot()

	want := []string{
		`artmem_tier_index{tier="DRAM"}`,
		`artmem_tier_index{tier="CXL"}`,
		`artmem_tier_index{tier="PM"}`,
		`artmem_tier_pages{tier="DRAM"}`,
		`artmem_tier_pages{tier="CXL"}`,
		`artmem_tier_pages{tier="PM"}`,
		`artmem_tier_capacity_pages{tier="DRAM"}`,
		`artmem_tier_capacity_pages{tier="CXL"}`,
		`artmem_tier_capacity_pages{tier="PM"}`,
		`artmem_tier_shadow_pages{tier="DRAM"}`,
		`artmem_tier_shadow_pages{tier="CXL"}`,
		`artmem_tier_shadow_pages{tier="PM"}`,
		`artmem_tier_accesses_total{tier="DRAM"}`,
		`artmem_tier_accesses_total{tier="CXL"}`,
		`artmem_tier_accesses_total{tier="PM"}`,
		`artmem_boundary_promotions_total{boundary="DRAM|CXL"}`,
		`artmem_boundary_promotions_total{boundary="CXL|PM"}`,
		`artmem_boundary_demotions_total{boundary="DRAM|CXL"}`,
		`artmem_boundary_demotions_total{boundary="CXL|PM"}`,
		`artmem_boundary_shadow_discards_total{boundary="DRAM|CXL"}`,
		`artmem_boundary_shadow_discards_total{boundary="CXL|PM"}`,
		`artmem_shadow_invalidates_total`,
		`artmem_shadow_reclaims_total`,
	}
	for _, series := range want {
		if !strings.Contains(prom, series+" ") {
			t.Errorf("prometheus exposition missing %s", series)
		}
		if _, ok := snap[series]; !ok {
			t.Errorf("JSON snapshot missing %s", series)
		}
	}

	// The full tier/boundary/shadow surface is exactly the pinned set:
	// an unpinned artmem_tier_* / artmem_boundary_* / artmem_shadow_*
	// series is schema drift too.
	var got []string
	for key := range snap {
		if strings.HasPrefix(key, "artmem_tier_") ||
			strings.HasPrefix(key, "artmem_boundary_") ||
			strings.HasPrefix(key, "artmem_shadow_") {
			got = append(got, key)
		}
	}
	sort.Strings(got)
	wantSorted := append([]string(nil), want...)
	sort.Strings(wantSorted)
	if strings.Join(got, "\n") != strings.Join(wantSorted, "\n") {
		t.Errorf("tier telemetry schema drifted:\n got:\n%s\n want:\n%s",
			strings.Join(got, "\n"), strings.Join(wantSorted, "\n"))
	}
}

// TestTieredHealthDegradedAggregation: Health.Degraded ORs over all
// boundary agents.
func TestTieredHealth(t *testing.T) {
	s := NewTieredSystem(testTieredConfig(t, "DRAM:cap=16/CXL:cap=16/PM", false))
	h := s.Health()
	if h.Degraded {
		t.Fatal("fresh system reports degraded")
	}
	s.agents[1].degraded = true
	if !s.Health().Degraded {
		t.Fatal("degraded boundary agent not surfaced")
	}
}
