package memsim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// testShardCfg builds a small machine config: 256 pages, half of them
// fast-tier, a small cache so the cache model participates.
func testShardCfg() Config {
	cfg := DefaultConfig(1<<20, 1<<19, 4096)
	cfg.CacheLines = 1024
	return cfg
}

// lcg is the deterministic address stream all sharding tests replay.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

// stream generates n (addr, write) pairs over a footprint with a
// skewed hot set: half the stream hits the low quarter of the space.
func stream(seed uint64, n int, footprint uint64) ([]uint64, []bool) {
	r := lcg(seed)
	addrs := make([]uint64, n)
	writes := make([]bool, n)
	for i := range addrs {
		v := r.next()
		if v&1 == 0 {
			addrs[i] = (v >> 1) % (footprint / 4)
		} else {
			addrs[i] = (v >> 1) % footprint
		}
		writes[i] = v&7 == 0
	}
	return addrs, writes
}

// TestShardedOneShardByteIdentical is the N=1 compatibility criterion:
// a one-shard machine replaying the same access and migration stream
// as a bare Machine must land on identical counters, clock, and
// background time — the guarantee that keeps every deterministic
// experiment and the benchdiff baseline stable with sharding off.
func TestShardedOneShardByteIdentical(t *testing.T) {
	cfg := testShardCfg()
	m := NewMachine(cfg)
	sm := NewShardedMachine(cfg, 1)

	addrs, writes := stream(1, 200_000, uint64(cfg.FootprintBytes))
	for i, a := range addrs {
		m.Access(a, writes[i])
	}
	sm.AccessBatch(addrs, writes)
	// A deterministic migration stream through the facade.
	for p := PageID(0); int(p) < m.NumPages(); p += 3 {
		em := m.MovePage(p, Slow)
		es := sm.MovePage(p, Slow)
		if (em == nil) != (es == nil) {
			t.Fatalf("page %d: MovePage divergence: %v vs %v", p, em, es)
		}
	}
	if m.Counters() != sm.Counters() {
		t.Errorf("counters diverge:\nmachine: %+v\nsharded: %+v", m.Counters(), sm.Counters())
	}
	if m.Now() != sm.Now() {
		t.Errorf("clock diverges: %d vs %d", m.Now(), sm.Now())
	}
	if m.BackgroundNs() != sm.BackgroundNs() {
		t.Errorf("background diverges: %g vs %g", m.BackgroundNs(), sm.BackgroundNs())
	}
	if err := sm.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestShardedAggregatesIndependentOfGoroutines pins the determinism
// law AccessBatchParallel rests on: whole-shard goroutine ownership
// keeps each shard's sub-stream in batch order, so the aggregate
// counters are identical for every goroutine count — and identical to
// the serial AccessBatch split.
func TestShardedAggregatesIndependentOfGoroutines(t *testing.T) {
	cfg := testShardCfg()
	addrs, writes := stream(7, 150_000, uint64(cfg.FootprintBytes))

	run := func(gs int) (Counters, int64) {
		sm := NewShardedMachine(cfg, 8)
		if gs == 0 {
			sm.AccessBatch(addrs, writes)
		} else {
			sm.AccessBatchParallel(addrs, writes, gs)
		}
		return sm.Counters(), sm.Now()
	}
	wantC, wantNow := run(0)
	for _, gs := range []int{1, 2, 3, 8, 16} {
		c, now := run(gs)
		if c != wantC {
			t.Errorf("gs=%d: counters diverge from serial:\nserial:   %+v\nparallel: %+v", gs, wantC, c)
		}
		if now != wantNow {
			t.Errorf("gs=%d: makespan clock %d != serial %d", gs, now, wantNow)
		}
	}
}

// TestShardedRouting covers the page-space bijection: every global
// page maps to exactly one (shard, local) pair and back, and per-page
// state set through the facade reads back through it.
func TestShardedRouting(t *testing.T) {
	cfg := testShardCfg()
	sm := NewShardedMachine(cfg, 4)
	seen := map[[2]int]bool{}
	for p := PageID(0); int(p) < sm.NumPages(); p++ {
		s, lp := sm.ShardOf(p), sm.LocalPage(p)
		if sm.GlobalPage(s, lp) != p {
			t.Fatalf("page %d: round trip via (%d,%d) failed", p, s, lp)
		}
		key := [2]int{s, int(lp)}
		if seen[key] {
			t.Fatalf("page %d: (shard,local) collision at %v", p, key)
		}
		seen[key] = true
		if int(lp) >= sm.Shard(s).NumPages() {
			t.Fatalf("page %d: local %d out of range for shard %d (%d pages)",
				p, lp, s, sm.Shard(s).NumPages())
		}
	}
	// Per-page bits route: poison + accessed bits set through the facade.
	sm.PoisonPage(5)
	sm.Access(5*uint64(cfg.PageSize), true)
	if sm.Counters().Faults != 1 {
		t.Errorf("poisoned page fault not routed: %+v", sm.Counters())
	}
	if !sm.Accessed(5) || !sm.Dirty(5) {
		t.Error("accessed/dirty bits not routed")
	}
	if !sm.TestAndClearAccessed(5) || sm.Accessed(5) {
		t.Error("TestAndClearAccessed not routed")
	}
}

// TestConcurrentShardedAccessAndMigration is the concurrent migration
// property test: several goroutines drive tenant access batches while
// another migrates pages within their shards through RunShardOf, and
// after every round a Quiesce barrier asserts CheckInvariants
// (per-shard recounts) plus the per-tenant RSS and quota sums. Run
// under -race by make check and the CI sharded access smoke step.
func TestConcurrentShardedAccessAndMigration(t *testing.T) {
	cfg := testShardCfg()
	const (
		shards  = 8
		tenants = 3
		writers = 4
		rounds  = 30
	)
	sm := NewShardedMachine(cfg, shards)
	sm.EnableTenants(tenants)
	quota := make([]int, tenants)
	for i := range quota {
		quota[i] = sm.CapacityPages(Fast) / (tenants + 1)
		sm.SetFastQuota(TenantID(i), quota[i])
	}

	var wg sync.WaitGroup
	var batches atomic.Int64
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ten := TenantID(w % tenants)
			addrs, writes := stream(uint64(w)+100, 2000, uint64(cfg.FootprintBytes))
			for {
				select {
				case <-stop:
					return
				default:
					sm.AccessBatchTenant(ten, addrs, writes)
					batches.Add(1)
				}
			}
		}(w)
	}

	check := func(round int) {
		sm.Quiesce(func() {
			if err := sm.CheckInvariants(); err != nil {
				t.Errorf("round %d: %v", round, err)
			}
			var sum [NumTiers]int
			for ten := 0; ten < tenants; ten++ {
				for tier := 0; tier < NumTiers; tier++ {
					sum[tier] += sm.TenantUsedPages(TenantID(ten), TierID(tier))
				}
				if used := sm.TenantUsedPages(TenantID(ten), Fast); used > quota[ten] {
					t.Errorf("round %d: tenant %d fast RSS %d over quota %d",
						round, ten, used, quota[ten])
				}
			}
			for tier := 0; tier < NumTiers; tier++ {
				if sum[tier] != sm.UsedPages(TierID(tier)) {
					t.Errorf("round %d: tenant %s RSS sums to %d, machine has %d",
						round, TierID(tier), sum[tier], sm.UsedPages(TierID(tier)))
				}
			}
		})
	}

	r := lcg(42)
	moved := 0
	for round := 0; round < rounds; round++ {
		// Every round interleaves with fresh access batches.
		for seen := batches.Load(); batches.Load() == seen; {
			runtime.Gosched()
		}
		for i := 0; i < 20; i++ {
			v := r.next()
			p := PageID(v % uint64(sm.NumPages()))
			dst := Slow
			if v&1 == 0 {
				dst = Fast
			}
			sm.RunShardOf(p, func(m *Machine, local PageID) {
				if m.Allocated(local) && m.TierOf(local) != dst && m.MovePage(local, dst) == nil {
					moved++
				}
			})
		}
		check(round)
	}
	close(stop)
	wg.Wait()
	check(rounds)
	if moved == 0 {
		t.Error("no in-shard migration committed; the property test exercised only accesses")
	}
}

// TestShardedConstructionPanics pins the constructor's contract.
func TestShardedConstructionPanics(t *testing.T) {
	for _, n := range []int{0, -1, 3, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("nshards=%d did not panic", n)
				}
			}()
			NewShardedMachine(testShardCfg(), n)
		}()
	}
}

// TestShardedCapacitySplit checks the deterministic split: per-tier
// capacities, cache lines, and page counts sum exactly to the
// unsharded totals for several shard counts.
func TestShardedCapacitySplit(t *testing.T) {
	cfg := testShardCfg()
	whole := NewMachine(cfg)
	for _, n := range []int{1, 2, 4, 8, 16} {
		sm := NewShardedMachine(cfg, n)
		if sm.NumPages() != whole.NumPages() {
			t.Errorf("n=%d: %d pages, want %d", n, sm.NumPages(), whole.NumPages())
		}
		pages := 0
		for s := 0; s < n; s++ {
			pages += sm.Shard(s).NumPages()
		}
		if pages != whole.NumPages() {
			t.Errorf("n=%d: shard pages sum to %d, want %d", n, pages, whole.NumPages())
		}
		for tier := 0; tier < NumTiers; tier++ {
			if got, want := sm.CapacityPages(TierID(tier)), whole.CapacityPages(TierID(tier)); got != want {
				t.Errorf("n=%d: %s capacity %d, want %d", n, TierID(tier), got, want)
			}
		}
	}
}

// TestShardedEnvFacade smoke-tests the Env surface a policy programs
// against on a multi-shard machine: hooks fire with global page IDs.
func TestShardedEnvFacade(t *testing.T) {
	cfg := testShardCfg()
	sm := NewShardedMachine(cfg, 4)
	var allocd []PageID
	sm.SetAllocHook(func(p PageID, tier TierID) { allocd = append(allocd, p) })
	got := map[PageID]bool{}
	sm.SetSampler(samplerFunc(func(p PageID, tier TierID, w bool, now int64) { got[p] = true }))

	addrs, writes := stream(3, 50_000, uint64(cfg.FootprintBytes))
	sm.AccessBatch(addrs, writes)

	if len(allocd) == 0 || len(got) == 0 {
		t.Fatalf("hooks did not fire: %d allocs, %d sampled", len(allocd), len(got))
	}
	for _, p := range allocd {
		if int(p) >= sm.NumPages() {
			t.Fatalf("alloc hook got out-of-range global page %d", p)
		}
	}
	for p := range got {
		if int(p) >= sm.NumPages() {
			t.Fatalf("sampler got out-of-range global page %d", p)
		}
		if !sm.Allocated(p) {
			t.Fatalf("sampled page %d not allocated via facade", p)
		}
	}
}

// samplerFunc adapts a function to the Sampler interface.
type samplerFunc func(PageID, TierID, bool, int64)

func (f samplerFunc) OnMiss(p PageID, t TierID, w bool, now int64) { f(p, t, w, now) }

func ExampleShardedMachine() {
	cfg := DefaultConfig(1<<20, 1<<19, 4096)
	sm := NewShardedMachine(cfg, 4)
	sm.AccessBatch([]uint64{0, 4096, 8192}, []bool{false, true, false})
	fmt.Println(sm.NumShards(), sm.UsedPages(Fast))
	// Output: 4 3
}
