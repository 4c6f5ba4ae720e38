package lru

import (
	"math/rand"
	"testing"
	"testing/quick"

	"artmem/internal/memsim"
)

func TestListIDHelpers(t *testing.T) {
	if ActiveOf(memsim.Fast) != FastActive || ActiveOf(memsim.Slow) != SlowActive {
		t.Error("ActiveOf wrong")
	}
	if InactiveOf(memsim.Fast) != FastInactive || InactiveOf(memsim.Slow) != SlowInactive {
		t.Error("InactiveOf wrong")
	}
	if TierOf(FastActive) != memsim.Fast || TierOf(SlowInactive) != memsim.Slow {
		t.Error("TierOf wrong")
	}
	if !IsActive(FastActive) || !IsActive(SlowActive) || IsActive(FastInactive) || IsActive(None) {
		t.Error("IsActive wrong")
	}
	for id := None; id < numLists; id++ {
		if id.String() == "" {
			t.Errorf("empty String for %d", id)
		}
	}
}

func TestTierOfNonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("TierOf(None) did not panic")
		}
	}()
	TierOf(None)
}

func TestPushHeadOrder(t *testing.T) {
	l := New(10)
	l.PushHead(FastActive, 1)
	l.PushHead(FastActive, 2)
	l.PushHead(FastActive, 3)
	// Head-to-tail order: 3, 2, 1.
	got := l.CollectHead(FastActive, 10)
	want := []memsim.PageID{3, 2, 1}
	assertPages(t, got, want)
	gotT := l.CollectTail(FastActive, 10)
	assertPages(t, gotT, []memsim.PageID{1, 2, 3})
	if l.Head(FastActive) != 3 || l.Tail(FastActive) != 1 {
		t.Errorf("head/tail = %d/%d", l.Head(FastActive), l.Tail(FastActive))
	}
}

func TestPushTailOrder(t *testing.T) {
	l := New(10)
	l.PushTail(SlowInactive, 1)
	l.PushTail(SlowInactive, 2)
	assertPages(t, l.CollectHead(SlowInactive, 10), []memsim.PageID{1, 2})
}

func TestMoveBetweenLists(t *testing.T) {
	l := New(10)
	l.PushHead(FastActive, 5)
	if l.ListOf(5) != FastActive {
		t.Fatalf("ListOf = %v", l.ListOf(5))
	}
	l.PushHead(SlowActive, 5) // implicit removal from FastActive
	if l.Len(FastActive) != 0 || l.Len(SlowActive) != 1 {
		t.Errorf("lens = %d/%d", l.Len(FastActive), l.Len(SlowActive))
	}
	if l.ListOf(5) != SlowActive {
		t.Errorf("ListOf = %v", l.ListOf(5))
	}
}

func TestRemove(t *testing.T) {
	l := New(10)
	for _, p := range []memsim.PageID{1, 2, 3} {
		l.PushTail(FastInactive, p)
	}
	l.Remove(2) // middle
	assertPages(t, l.CollectHead(FastInactive, 10), []memsim.PageID{1, 3})
	l.Remove(1) // head
	assertPages(t, l.CollectHead(FastInactive, 10), []memsim.PageID{3})
	l.Remove(3) // tail, single element
	if l.Len(FastInactive) != 0 || l.Head(FastInactive) != memsim.NoPage ||
		l.Tail(FastInactive) != memsim.NoPage {
		t.Error("list not empty after removing all")
	}
	l.Remove(7) // unlisted: no-op
	if l.ListOf(7) != None {
		t.Error("unlisted page got a list")
	}
}

func TestPushNoneRemoves(t *testing.T) {
	l := New(4)
	l.PushHead(FastActive, 0)
	l.PushHead(None, 0)
	if l.ListOf(0) != None || l.Len(FastActive) != 0 {
		t.Error("PushHead(None) did not remove")
	}
	l.PushTail(FastActive, 1)
	l.PushTail(None, 1)
	if l.ListOf(1) != None {
		t.Error("PushTail(None) did not remove")
	}
}

func TestFromTailEarlyStop(t *testing.T) {
	l := New(10)
	for i := memsim.PageID(0); i < 5; i++ {
		l.PushHead(FastActive, i)
	}
	visited := 0
	l.FromTail(FastActive, 10, func(memsim.PageID) bool {
		visited++
		return visited < 2
	})
	if visited != 2 {
		t.Errorf("visited %d, want 2", visited)
	}
	// Bounded by n.
	visited = 0
	l.FromHead(FastActive, 3, func(memsim.PageID) bool { visited++; return true })
	if visited != 3 {
		t.Errorf("visited %d, want 3", visited)
	}
}

func TestAgeSecondChance(t *testing.T) {
	l := New(8)
	// Active: pages 0,1 (0 referenced). Inactive: pages 2,3 (3 referenced).
	l.PushTail(FastActive, 0)
	l.PushTail(FastActive, 1)
	l.PushTail(FastInactive, 2)
	l.PushTail(FastInactive, 3)
	refd := map[memsim.PageID]bool{0: true, 3: true}
	l.Age(memsim.Fast, 10, func(p memsim.PageID) bool {
		r := refd[p]
		refd[p] = false
		return r
	})
	if l.ListOf(0) != FastActive {
		t.Errorf("referenced active page 0 moved to %v", l.ListOf(0))
	}
	if l.ListOf(1) != FastInactive {
		t.Errorf("unreferenced active page 1 on %v, want inactive", l.ListOf(1))
	}
	if l.ListOf(2) != FastInactive {
		t.Errorf("unreferenced inactive page 2 on %v, want inactive", l.ListOf(2))
	}
	if l.ListOf(3) != FastActive {
		t.Errorf("referenced inactive page 3 on %v, want active", l.ListOf(3))
	}
}

func TestAgeDoesNotTouchOtherTier(t *testing.T) {
	l := New(4)
	l.PushTail(SlowActive, 0)
	l.Age(memsim.Fast, 10, func(memsim.PageID) bool { return false })
	if l.ListOf(0) != SlowActive {
		t.Errorf("aging fast tier moved slow page to %v", l.ListOf(0))
	}
}

// Property: under arbitrary operation sequences, (a) sizes equal the
// lengths walked from head, (b) every page is on the list ListOf claims,
// (c) walking head→tail and tail→head give reversed sequences.
func TestListInvariantsProperty(t *testing.T) {
	const n = 16
	f := func(ops []uint16) bool {
		l := New(n)
		for _, op := range ops {
			p := memsim.PageID(op % n)
			id := ListID(op / n % uint16(numLists))
			switch (op / (n * uint16(numLists))) % 3 {
			case 0:
				l.PushHead(id, p)
			case 1:
				l.PushTail(id, p)
			case 2:
				l.Remove(p)
			}
		}
		total := 0
		for id := FastActive; id < numLists; id++ {
			var fwd []memsim.PageID
			l.FromHead(id, n+1, func(p memsim.PageID) bool {
				fwd = append(fwd, p)
				return true
			})
			if len(fwd) != l.Len(id) {
				return false
			}
			var bwd []memsim.PageID
			l.FromTail(id, n+1, func(p memsim.PageID) bool {
				bwd = append(bwd, p)
				return true
			})
			if len(bwd) != len(fwd) {
				return false
			}
			for i := range fwd {
				if fwd[i] != bwd[len(bwd)-1-i] {
					return false
				}
				if l.ListOf(fwd[i]) != id {
					return false
				}
			}
			total += len(fwd)
		}
		// Every page not on a list must claim None.
		onList := 0
		for p := memsim.PageID(0); p < n; p++ {
			if l.ListOf(p) != None {
				onList++
			}
		}
		return onList == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func assertPages(t *testing.T, got, want []memsim.PageID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("pages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pages = %v, want %v", got, want)
		}
	}
}

func BenchmarkPushHeadRemove(b *testing.B) {
	l := New(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := memsim.PageID(i & (1<<16 - 1))
		l.PushHead(FastActive, p)
	}
}

func TestTransitionHook(t *testing.T) {
	l := New(8)
	type move struct {
		p        memsim.PageID
		from, to ListID
	}
	var got []move
	l.SetTransitionHook(func(p memsim.PageID, from, to ListID) {
		got = append(got, move{p, from, to})
	})

	l.PushHead(FastActive, 1)   // none -> fast-active
	l.PushHead(FastActive, 1)   // refresh: silent
	l.PushTail(FastActive, 1)   // refresh via tail: silent
	l.PushHead(FastInactive, 1) // fast-active -> fast-inactive
	l.PushTail(SlowActive, 1)   // fast-inactive -> slow-active
	l.Remove(1)                 // slow-active -> none
	l.Remove(1)                 // unlisted: silent
	l.PushHead(None, 2)         // unlisted push-to-none: silent

	want := []move{
		{1, None, FastActive},
		{1, FastActive, FastInactive},
		{1, FastInactive, SlowActive},
		{1, SlowActive, None},
	}
	if len(got) != len(want) {
		t.Fatalf("hook fired %d times, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("transition %d = %v, want %v", i, got[i], want[i])
		}
	}

	// Uninstalling restores silence.
	l.SetTransitionHook(nil)
	l.PushHead(FastActive, 3)
	if len(got) != len(want) {
		t.Error("hook fired after removal")
	}
}

func TestTransitionHookDuringAge(t *testing.T) {
	l := New(4)
	fires := 0
	l.PushHead(FastActive, 0)
	l.PushHead(FastInactive, 1)
	l.SetTransitionHook(func(p memsim.PageID, from, to ListID) {
		if from == to {
			t.Errorf("hook fired for same-list refresh of page %d on %v", p, from)
		}
		fires++
	})
	// Page 0 unreferenced: active -> inactive. Page 1 referenced:
	// inactive -> active. Both are real transitions.
	refs := map[memsim.PageID]bool{1: true}
	l.Age(memsim.Fast, 10, func(p memsim.PageID) bool { return refs[p] })
	if fires != 2 {
		t.Errorf("hook fired %d times during aging, want 2", fires)
	}
}

// TestAgeAllocs pins an aging pass at zero allocations once its scratch
// has grown: the agents age both tiers every sampling pass.
func TestAgeAllocs(t *testing.T) {
	l := New(256)
	for p := 0; p < 256; p++ {
		l.PushHead([]ListID{FastActive, FastInactive, SlowActive, SlowInactive}[p%4], memsim.PageID(p))
	}
	referenced := func(p memsim.PageID) bool { return p%3 == 0 }
	age := func() {
		l.Age(memsim.Fast, 48, referenced)
		l.Age(memsim.Slow, 48, referenced)
	}
	age() // warm-up grows the scratch
	if got := testing.AllocsPerRun(100, age); got != 0 {
		t.Errorf("Age allocates %.0f objects per pass, want 0", got)
	}
}

// TestAgeMatchesCollectTail pins Age's visit order against the
// two-CollectTail formulation it replaced: the same pages are tested in
// the same order and every list ends in the same state.
func TestAgeMatchesCollectTail(t *testing.T) {
	reference := func(l *PageLists, tier memsim.TierID, scan int, referenced func(memsim.PageID) bool) {
		active, inactive := ActiveOf(tier), InactiveOf(tier)
		for _, id := range []ListID{active, inactive} {
			for _, p := range l.CollectTail(id, scan) {
				if referenced(p) {
					l.PushHead(active, p)
				} else {
					l.PushHead(inactive, p)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		const pages = 200
		got, want := New(pages), New(pages)
		for p := 0; p < pages; p++ {
			id := ListID(1 + rng.Intn(int(numLists)-1))
			got.PushHead(id, memsim.PageID(p))
			want.PushHead(id, memsim.PageID(p))
		}
		bits := make([]bool, pages)
		for i := range bits {
			bits[i] = rng.Intn(2) == 0
		}
		for pass := 0; pass < 5; pass++ {
			tier, scan := memsim.TierID(rng.Intn(2)), rng.Intn(80)
			var gotOrder, wantOrder []memsim.PageID
			got.Age(tier, scan, func(p memsim.PageID) bool { gotOrder = append(gotOrder, p); return bits[p] })
			reference(want, tier, scan, func(p memsim.PageID) bool { wantOrder = append(wantOrder, p); return bits[p] })
			assertPages(t, gotOrder, wantOrder)
			for id := FastActive; id < numLists; id++ {
				assertPages(t, got.CollectHead(id, pages), want.CollectHead(id, pages))
			}
		}
	}
}
