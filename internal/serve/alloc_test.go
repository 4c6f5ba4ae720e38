package serve

import (
	"sync"
	"testing"
)

// loopbackAllocsPerBatch is the serving data plane's allocation budget
// for one warmed round trip: the server's done-callback closure. The
// frame, record, encode and ack buffers are all reused.
const loopbackAllocsPerBatch = 1

// TestServeLoopbackAllocs pins the steady-state data plane as
// allocation-free up to a constant per batch: a warmed loopback round
// trip (SendAccessBatch through to its ack) allocates the same small
// number of objects whatever the batch size.
func TestServeLoopbackAllocs(t *testing.T) {
	s := NewServer(Config{Backend: newFakeBenchBackend()})
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	defer func() {
		s.Shutdown()
		<-served
	}()
	for _, size := range []int{16, 4096} {
		acked := make(chan struct{}, 1)
		cl, err := Dial(ln.Addr().String(), ClientConfig{
			Window:    1,
			OnResolve: func(uint64, byte, float64) { acked <- struct{}{} },
		})
		if err != nil {
			t.Fatal(err)
		}
		addrs, writes := make([]uint64, size), make([]bool, size)
		for i := range addrs {
			addrs[i], writes[i] = uint64(i)*4096, i%4 == 0
		}
		roundTrip := func() {
			if _, err := cl.SendAccessBatch(addrs, writes); err != nil {
				t.Fatal(err)
			}
			<-acked
		}
		// Warm up: frame buffers, the record free list, the ack
		// buffers and the client's latency ledger reach steady size.
		for i := 0; i < 100; i++ {
			roundTrip()
		}
		got := testing.AllocsPerRun(200, roundTrip)
		if _, err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		if got > loopbackAllocsPerBatch {
			t.Errorf("batch of %d records: %.0f allocations per round trip, want <= %d",
				size, got, loopbackAllocsPerBatch)
		}
	}
}

// TestServeDoneScribble pins the Submit ownership contract under
// concurrent clients: the server reads recs only until done fires.
// Direct submitters reuse one record slice each — the done callback
// scribbles over its records and the client refills the slice for the
// next batch — and network clients exercise the connection's recycled
// record slices. A server read after done would see scribbled or
// foreign addresses (and trip the race detector); the backend must see
// exactly the addresses submitted.
func TestServeDoneScribble(t *testing.T) {
	const (
		clients = 8
		batches = 200
		size    = 64
	)
	addr := func(c, b, i int) uint64 { return uint64((c*batches+b)*size + i) }
	checkSeen := func(t *testing.T, fb *fakeBackend) {
		t.Helper()
		fb.mu.Lock()
		defer fb.mu.Unlock()
		if len(fb.addrs) != clients*batches*size {
			t.Fatalf("backend saw %d accesses, want %d", len(fb.addrs), clients*batches*size)
		}
		seen := make([]bool, clients*batches*size)
		for _, a := range fb.addrs {
			if a >= uint64(len(seen)) || seen[a] {
				t.Fatalf("backend saw address %#x: scribbled, foreign or duplicated", a)
			}
			seen[a] = true
		}
	}

	t.Run("submit", func(t *testing.T) {
		fb := newFakeBackend(2)
		s := NewServer(Config{Backend: fb, QueueRecords: 1 << 20})
		s.Start()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				recs := make([]Record, size)
				resolved := make(chan Result, 1)
				for b := 0; b < batches; b++ {
					for i := range recs {
						recs[i] = Record{Op: OpAccess, Addr: addr(c, b, i)}
					}
					err := s.Submit(c%2, uint64(b+1), recs, func(res Result) {
						for i := range recs {
							recs[i].Addr = ^uint64(0)
						}
						resolved <- res
					})
					if err != nil {
						t.Errorf("client %d batch %d refused: %v", c, b, err)
						return
					}
					if res := <-resolved; res.Err != nil || res.Count != size {
						t.Errorf("client %d batch %d: %+v", c, b, res)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		s.Drain()
		checkSeen(t, fb)
	})

	t.Run("network", func(t *testing.T) {
		fb := newFakeBackend(2)
		s := NewServer(Config{Backend: fb, QueueRecords: 1 << 20})
		ln, err := listenLoopback()
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- s.Serve(ln) }()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl, err := Dial(ln.Addr().String(), ClientConfig{Tenant: uint32(c % 2)})
				if err != nil {
					t.Error(err)
					return
				}
				addrs, writes := make([]uint64, size), make([]bool, size)
				for b := 0; b < batches; b++ {
					for i := range addrs {
						addrs[i] = addr(c, b, i)
					}
					if _, err := cl.SendAccessBatch(addrs, writes); err != nil {
						t.Error(err)
						return
					}
				}
				st, err := cl.Close()
				if err != nil || st.Acked != batches {
					t.Errorf("client %d: acked %d of %d (%v)", c, st.Acked, batches, err)
				}
			}(c)
		}
		wg.Wait()
		s.Shutdown()
		<-served
		checkSeen(t, fb)
	})
}
