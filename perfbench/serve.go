package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"artmem/internal/core"
	"artmem/internal/memsim"
	"artmem/internal/rl"
	"artmem/internal/serve"
	"artmem/internal/telemetry"
	"artmem/internal/workloads"
)

// Serving geometry: two closed-loop clients on one loopback server,
// each keeping up to serveWindow batches of serveBatch records in
// flight.
const (
	serveClients = 2
	serveWindow  = 8
	serveBatch   = 256
)

// clientTrace is one client's pre-generated stream of access batches.
type clientTrace struct {
	addrs  [][]uint64
	writes [][]bool
}

func (t clientTrace) records() int {
	n := 0
	for _, a := range t.addrs {
		n += len(a)
	}
	return n
}

// serveBench holds the serving workload's prepared inputs.
type serveBench struct {
	prof     workloads.Profile
	foot     int64
	mig, thr *rl.Table
	traces   []clientTrace
}

// batches is the number of batches one round sends.
func (b *serveBench) batches() int {
	n := 0
	for _, t := range b.traces {
		n += len(t.addrs)
	}
	return n
}

// genTraces chops each client's seed-decorrelated YCSB trace into
// batches, the way the load generator does, before any timer starts.
func genTraces(p workloads.Profile, perClient int64) ([]clientTrace, int64) {
	spec, err := workloads.ByName("YCSB")
	if err != nil {
		panic(err)
	}
	out := make([]clientTrace, serveClients)
	var foot int64
	for c := range out {
		w := workloads.Limit(spec.NewSeeded(p, uint64(c)), perClient)
		foot = w.FootprintBytes()
		var tr clientTrace
		addrs, writes := make([]uint64, 0, serveBatch), make([]bool, 0, serveBatch)
		for {
			b, ok := w.Next()
			if !ok {
				break
			}
			for _, a := range b {
				addrs = append(addrs, a.Addr)
				writes = append(writes, a.Write)
				if len(addrs) == serveBatch {
					tr.addrs, tr.writes = append(tr.addrs, addrs), append(tr.writes, writes)
					addrs, writes = make([]uint64, 0, serveBatch), make([]bool, 0, serveBatch)
				}
			}
		}
		if len(addrs) > 0 {
			tr.addrs, tr.writes = append(tr.addrs, addrs), append(tr.writes, writes)
		}
		w.Close()
		out[c] = tr
	}
	return out, foot
}

// stack is one live serving stack: a started core.System behind a
// serve.Server on a loopback listener, and the dialled clients.
type stack struct {
	sys     *core.System
	srv     *serve.Server
	served  chan error
	clients []*serve.Client
	spans   *telemetry.SpanJournal
	probes  []*clientProbe
}

// clientProbe is the traced run's client-side span record, indexed by
// batch sequence number (seqs run 1..n on each stream).
type clientProbe struct {
	sendStart []int64 // wall ns before SendAccessBatch
	sendNs    []int64 // SendAccessBatch duration, window wait included
	ackAt     []int64 // wall ns the ack was resolved
	latNs     []float64
}

// start builds a fresh System and Server, listens on loopback and
// dials the clients. traced enables the span journal at rate 1 and the
// client-side probes.
func (b *serveBench) start(traced bool) (*stack, error) {
	sys := core.NewSystem(core.SystemConfig{
		Machine: memsim.DefaultConfig(b.foot, b.foot/5, b.prof.PageSize()),
		Policy:  core.Config{Seed: b.prof.Seed, PretrainedMig: b.mig, PretrainedThr: b.thr},
	})
	sys.Start()
	st := &stack{sys: sys, served: make(chan error, 1)}
	cfg := serve.Config{Backend: serve.NewSystemBackend(sys)}
	if traced {
		st.spans = telemetry.NewSpanJournal(b.batches(), 1)
		cfg.Spans, cfg.StallNs = st.spans, sys.ControlBusyNs
	}
	st.srv = serve.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.Stop()
		return nil, fmt.Errorf("listen: %w", err)
	}
	go func() { st.served <- st.srv.Serve(ln) }()
	for c := range b.traces {
		ccfg := serve.ClientConfig{ClientID: fmt.Sprintf("perfbench-%d", c), Window: serveWindow}
		if traced {
			n := len(b.traces[c].addrs) + 1
			p := &clientProbe{sendStart: make([]int64, n), sendNs: make([]int64, n),
				ackAt: make([]int64, n), latNs: make([]float64, n)}
			ccfg.OnResolve = func(seq uint64, _ byte, lat float64) {
				if seq < uint64(n) {
					p.ackAt[seq] = time.Now().UnixNano()
					p.latNs[seq] = lat
				}
			}
			st.probes = append(st.probes, p)
		}
		cl, err := serve.Dial(ln.Addr().String(), ccfg)
		if err != nil {
			st.stop()
			return nil, fmt.Errorf("dial: %w", err)
		}
		st.clients = append(st.clients, cl)
	}
	return st, nil
}

// stop closes any clients still open, drains the server and stops the
// System, waiting for every goroutine they started.
func (st *stack) stop() {
	for _, cl := range st.clients {
		cl.Close()
	}
	st.clients = nil
	st.srv.Shutdown()
	<-st.served
	st.sys.Stop()
}

// serveRound is one round's outcome: both clients replayed their whole
// trace against a fresh stack.
type serveRound struct {
	wallNs    int64
	idx       float64 // host speed index of the probes around the round
	allocB    uint64
	stats     []serve.ClientStats
	errs      []error
	generated int64
	accessD   uint64 // System access-counter delta
	counters  memsim.Counters
	// execNs is the machine's virtual clock after the round, the
	// serving analogue of harness.Result.ExecNs; backgroundNs its
	// virtual background CPU.
	execNs       int64
	backgroundNs float64
	health       core.Health
	busyNs       int64
	agent        *core.ArtMem
	spans        []telemetry.Span
	probes       []*clientProbe
}

// round runs one closed-loop round. drop, when set, withholds one
// generated batch from client 0 — the self-test's corrupted gate.
func (b *serveBench) round(traced, drop bool) (serveRound, error) {
	st, err := b.start(traced)
	if err != nil {
		return serveRound{}, err
	}
	c0 := st.sys.Counters()
	busy0 := st.sys.ControlBusyNs()
	r := serveRound{stats: make([]serve.ClientStats, len(st.clients)), errs: make([]error, len(st.clients))}
	for _, t := range b.traces {
		r.generated += int64(t.records())
	}
	a0 := allocBytes()
	start := time.Now()
	var wg sync.WaitGroup
	for c, cl := range st.clients {
		wg.Add(1)
		go func(c int, cl *serve.Client) {
			defer wg.Done()
			tr := b.traces[c]
			n := len(tr.addrs)
			if drop && c == 0 {
				n--
			}
			var p *clientProbe
			if traced {
				p = st.probes[c]
			}
			for i := 0; i < n; i++ {
				var s time.Time
				if p != nil {
					s = time.Now()
				}
				seq, err := cl.SendAccessBatch(tr.addrs[i], tr.writes[i])
				if err != nil {
					r.errs[c] = err
					break
				}
				if p != nil && seq < uint64(len(p.sendStart)) {
					p.sendStart[seq] = s.UnixNano()
					p.sendNs[seq] = int64(time.Since(s))
				}
			}
			cs, cerr := cl.Close()
			r.stats[c] = cs
			if r.errs[c] == nil {
				r.errs[c] = cerr
			}
		}(c, cl)
	}
	wg.Wait()
	r.wallNs = int64(time.Since(start))
	r.allocB = allocBytes() - a0
	st.clients = nil
	r.busyNs = st.sys.ControlBusyNs() - busy0
	st.stop()
	// The System is stopped: its machine and agent are quiescent.
	m := st.sys.Machine()
	r.counters, r.execNs, r.backgroundNs = m.Counters(), m.Now(), m.BackgroundNs()
	r.accessD = accessCount(r.counters) - accessCount(c0)
	r.health = st.sys.Health()
	r.agent = st.sys.Policy()
	if traced {
		r.spans = st.spans.Spans(0)
		r.probes = st.probes
	}
	return r, nil
}

func accessCount(c memsim.Counters) uint64 { return c.CacheHits + c.FastAccesses + c.SlowAccesses }

// sent, failed and acked records summed over the round's clients.
func (r serveRound) ledger() (sent, failed, ackedRecords int64) {
	for c, s := range r.stats {
		sent += int64(s.Sent)
		failed += int64(s.Shed + s.Lost)
		if r.errs[c] != nil {
			failed++
		}
		ackedRecords += int64(s.AckedRecords)
	}
	return sent, failed, ackedRecords
}

// check is the serving correctness gate: nothing lost, shed or failed,
// and every generated record acked and counted by the machine exactly
// once.
func (r serveRound) check() error {
	var errs []error
	for c, s := range r.stats {
		if r.errs[c] != nil {
			errs = append(errs, fmt.Errorf("client %d: %w", c, r.errs[c]))
		}
		if s.Lost != 0 || s.Shed != 0 {
			errs = append(errs, fmt.Errorf("client %d: %d lost, %d shed of %d sent", c, s.Lost, s.Shed, s.Sent))
		}
	}
	_, _, acked := r.ledger()
	if acked != r.generated {
		errs = append(errs, fmt.Errorf("acked %d records, generated %d", acked, r.generated))
	}
	if r.accessD != uint64(r.generated) {
		errs = append(errs, fmt.Errorf("machine counted %d accesses, generated %d", r.accessD, r.generated))
	}
	return errors.Join(errs...)
}

func (r serveRound) maccessPerS() float64 {
	_, _, acked := r.ledger()
	return float64(acked) / float64(r.wallNs) * 1e3
}

// serveE2E fills the end-to-end metrics from untraced rounds. Each
// round yields a throughput and batch latency quantiles (thousands of
// batches per round, so p99 has well over ten beyond it), brought to
// nominal host speed with the index of the reference probes around the
// round; every figure is the median over rounds.
func serveE2E(raw map[string]float64, rounds []serveRound) {
	var rate, alloc, exec, dram, p50, p99 []float64
	samples := 0
	for _, r := range rounds {
		rate = append(rate, r.maccessPerS()/r.idx)
		alloc = append(alloc, float64(r.allocB)/float64(r.generated))
		exec = append(exec, float64(r.execNs)/1e6)
		dram = append(dram, r.counters.DRAMRatio())
		var lat []float64
		for _, s := range r.stats {
			lat = append(lat, s.LatNs...)
		}
		samples += len(lat)
		p50 = append(p50, quantile(lat, 0.50)/1e6*r.idx)
		p99 = append(p99, quantile(lat, 0.99)/1e6*r.idx)
	}
	raw["maccess_per_s"] = median(rate)
	raw["alloc_b_per_access"] = median(alloc)
	raw["batch_p50_ms"] = median(p50)
	raw["batch_p99_ms"] = median(p99)
	raw["batch_samples"] = float64(samples)
	raw["sim_exec_ms"] = median(exec)
	raw["dram_ratio"] = median(dram)
}

// joined is one acked batch seen from both ends: the client's span and
// the server's journal entry.
type joined struct {
	latNs  float64
	sendNs int64
	span   telemetry.Span
}

// join matches every acked batch to its server span. Both streams use
// seqs 1..n on one tenant slot, so a seq names one span per client; the
// assignment must put each span's enqueue time inside its client's
// send-to-ack window.
func join(r serveRound) ([]joined, error) {
	type window struct {
		client int
		seq    int
	}
	bySeq := map[uint64][]telemetry.Span{}
	for _, sp := range r.spans {
		bySeq[sp.ClientSeq] = append(bySeq[sp.ClientSeq], sp)
	}
	wins := map[uint64][]window{}
	for c, p := range r.probes {
		for seq := 1; seq < len(p.sendStart); seq++ {
			if p.ackAt[seq] != 0 {
				wins[uint64(seq)] = append(wins[uint64(seq)], window{c, seq})
			}
		}
	}
	inside := func(w window, sp telemetry.Span) bool {
		p := r.probes[w.client]
		return sp.StartNs >= p.sendStart[w.seq] && sp.StartNs <= p.ackAt[w.seq]
	}
	var out []joined
	for seq, ws := range wins {
		spans := bySeq[seq]
		pick := assign(len(ws), spans, func(i int, sp telemetry.Span) bool { return inside(ws[i], sp) })
		if pick == nil {
			return nil, fmt.Errorf("seq %d: %d acked batches, %d server spans, no consistent assignment", seq, len(ws), len(spans))
		}
		for i, w := range ws {
			p := r.probes[w.client]
			out = append(out, joined{latNs: p.latNs[w.seq], sendNs: p.sendNs[w.seq], span: spans[pick[i]]})
		}
	}
	return out, nil
}

// assign finds distinct spans for n windows such that fits(i, span) for
// each window i, returning the span index per window or nil.
func assign(n int, spans []telemetry.Span, fits func(int, telemetry.Span) bool) []int {
	pick := make([]int, n)
	used := make([]bool, len(spans))
	var try func(i int) bool
	try = func(i int) bool {
		if i == n {
			return true
		}
		for k, sp := range spans {
			if !used[k] && fits(i, sp) {
				used[k], pick[i] = true, k
				if try(i + 1) {
					return true
				}
				used[k] = false
			}
		}
		return false
	}
	if !try(0) {
		return nil
	}
	return pick
}

// serveLayers fills the per-layer metrics from traced rounds. The
// blocking path is a batch's send-to-ack latency; the server stages
// come from the span journal, the residual is what they leave of the
// client-measured latency (client encode and write, loopback transfer,
// frame read, ack delivery). memsim.access_ns and memsim.share stay 0:
// the apply stage holds the memsim access path together with the wait
// for the System lock the agent threads hold, and the benchmark cannot
// split the two from outside the program.
func serveLayers(raw map[string]float64, rounds []serveRound) error {
	var lat, send, dec, queue, stall, coal, apply, ack, unattr []float64
	var busy, wall float64
	for _, r := range rounds {
		js, err := join(r)
		if err != nil {
			return err
		}
		for _, j := range js {
			sp := j.span
			lat = append(lat, j.latNs/1e3)
			send = append(send, float64(j.sendNs)/1e3)
			dec = append(dec, float64(sp.DecodeNs)/1e3)
			queue = append(queue, float64(sp.QueueNs)/1e3)
			stall = append(stall, float64(sp.StallNs)/1e3)
			coal = append(coal, float64(sp.CoalesceNs)/1e3)
			apply = append(apply, float64(sp.ApplyNs)/1e3)
			ack = append(ack, float64(sp.AckNs)/1e3)
			unattr = append(unattr, (j.latNs-float64(sp.TotalNs()))/1e3)
		}
		busy += float64(r.busyNs)
		wall += float64(r.wallNs)
	}
	ml := mean(lat)
	raw["batch_samples"] = float64(len(lat))
	raw["serve.send_us"] = mean(send)
	raw["serve.decode_us"] = mean(dec)
	raw["serve.queue_us"] = mean(queue)
	raw["serve.queue_p99_us"] = quantile(queue, 0.99)
	raw["serve.stall_us"] = mean(stall)
	raw["serve.coalesce_us"] = mean(coal)
	raw["serve.apply_us"] = mean(apply)
	raw["serve.apply_p99_us"] = quantile(apply, 0.99)
	raw["serve.ack_us"] = mean(ack)
	raw["serve.unattributed_us"] = mean(unattr)
	raw["trace.unattributed_share"] = ratio(mean(unattr), ml)
	raw["core.share"] = ratio(mean(stall), ml)
	raw["core.control_busy_share"] = ratio(busy, wall)

	// Machine and agent counters, averaged per round.
	n := float64(len(rounds))
	for _, r := range rounds {
		c := r.counters
		raw["memsim.cache_hit_ratio"] += ratio(float64(c.CacheHits), float64(accessCount(c))) / n
		raw["memsim.promotions"] += float64(c.Promotions) / n
		raw["memsim.demotions"] += float64(c.Demotions) / n
		raw["memsim.migrated_mb"] += float64(c.MigratedBytes) / (1 << 20) / n
		raw["memsim.migration_failures"] += float64(c.MigrationFailures) / n
		raw["memsim.background_ms"] += r.backgroundNs / 1e6 / n
		raw["core.sampling_passes"] += float64(r.health.SamplingBeats) / n
		raw["core.migration_passes"] += float64(r.health.MigrationBeats) / n
		one := map[string]float64{}
		agentLayers(one, []*core.ArtMem{r.agent})
		for k, v := range one {
			raw[k] += v / n
		}
	}
	return nil
}

// serveNotes renders the serving layer accounting: each stage's mean
// self time per batch and its share of the mean send-to-ack latency.
func serveNotes(raw map[string]float64) []string {
	lat := 0.0
	stages := []string{"serve.decode_us", "serve.queue_us", "serve.stall_us", "serve.coalesce_us", "serve.apply_us", "serve.ack_us", "serve.unattributed_us"}
	for _, k := range stages {
		lat += raw[k]
	}
	notes := []string{fmt.Sprintf("layer accounting per batch over %.0f joined batches, blocking path send-to-ack %.1f us (client send call %.1f us, window wait included):",
		raw["batch_samples"], lat, raw["serve.send_us"])}
	for _, k := range stages {
		notes = append(notes, fmt.Sprintf("  %-24s self %9.1f us  share %.4f", k, raw[k], ratio(raw[k], lat)))
	}
	// Decode's share is the most zero-copy decode could save.
	return append(notes, fmt.Sprintf("zero-copy decode ceiling: %.2f%% of the mean batch latency", 100*ratio(raw["serve.decode_us"], lat)))
}
