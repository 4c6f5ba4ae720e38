package main

import "container/list"

// The host reference. A virtual machine shares its host's caches and
// memory with other tenants, and the speed of memory-bound code drifts
// with their load, by a third over minutes and by up to a factor of two
// within seconds, while compute-bound code does not move. The benchmark
// and the code it drives are memory-bound, so every timed figure is
// taken at nominal host speed: each replay, serving round and set-up is
// bracketed by two probes of a fixed reference kernel, and its time is
// scaled by how fast the probes ran against their nominal speed. The
// kernel is an LRU cache over a Go map and a container/list, which
// exercises the memory hierarchy the way the simulator's page lists do.
// It uses only the standard library, so no change to the repository
// moves it, and a probe first walks the whole cache untimed, so the
// cache state the measured code left behind does not move it either:
// any change to the program moves the normalised figures exactly as
// much as the raw ones.
const (
	refEntries = 100_000 // LRU capacity; keys are drawn from twice as many
	refOps     = 32_000  // timed operations per probe
	// refNominalOps is the nominal reference speed in operations per
	// second: about the median probe speed on a 2-vCPU Intel Xeon
	// virtual machine.
	refNominalOps = 2e6
)

// hostRef is the reference kernel's state, kept across probes.
type hostRef struct {
	l    *list.List
	m    map[uint64]*list.Element
	rng  uint64
	sink uint64
}

// newHostRef builds the reference LRU and fills it, untimed.
func newHostRef() *hostRef {
	h := &hostRef{l: list.New(), m: make(map[uint64]*list.Element, refEntries), rng: 1}
	h.run(4 * refEntries)
	return h
}

// run performs n LRU operations on keys from a fixed generator: a hit
// moves its entry to the front, a miss recycles the least recently used
// entry for the new key.
func (h *hostRef) run(n int) {
	for i := 0; i < n; i++ {
		h.rng = h.rng*6364136223846793005 + 1442695040888963407
		k := (h.rng >> 33) % (2 * refEntries)
		if e, ok := h.m[k]; ok {
			h.l.MoveToFront(e)
			continue
		}
		if h.l.Len() < refEntries {
			h.m[k] = h.l.PushFront(k)
			continue
		}
		e := h.l.Back()
		delete(h.m, e.Value.(uint64))
		e.Value = k
		h.l.MoveToFront(e)
		h.m[k] = e
	}
}

// warm walks the list and the map once, bringing the whole cache back
// into the memory hierarchy.
func (h *hostRef) warm() {
	for e := h.l.Front(); e != nil; e = e.Next() {
		h.sink += e.Value.(uint64)
	}
	for k := range h.m {
		h.sink += k
	}
}

// probe warms the cache, times refOps operations, and returns the host
// speed index they show: their speed over the nominal speed. A time multiplied by the index, or a rate
// divided by it, is the figure at nominal host speed.
func (h *hostRef) probe() float64 {
	h.warm()
	s := nanotime()
	h.run(refOps)
	ns := nanotime() - s
	return refOps / (float64(ns) / 1e9) / refNominalOps
}

// bracket tracks the probes around consecutive measured units: each
// unit's index is the mean of the probe before it and the probe after.
type bracket struct {
	ref    *hostRef
	before float64
}

func newBracket(ref *hostRef) *bracket { return &bracket{ref: ref, before: ref.probe()} }

// next probes after a unit and returns the unit's index.
func (b *bracket) next() float64 {
	after := b.ref.probe()
	idx := (b.before + after) / 2
	b.before = after
	return idx
}
