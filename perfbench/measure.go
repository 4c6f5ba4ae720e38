package main

import (
	"fmt"
	"time"

	"artmem/internal/workloads"
)

// phase repeats one unit of work until budget seconds have passed, and
// at least once.
func phase(budget float64, unit func() error) error {
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for first := true; first || time.Now().Before(deadline); first = false {
		if err := unit(); err != nil {
			return err
		}
	}
	return nil
}

// budgets splits the measured seconds: all untraced for --trace 0,
// half untraced and half traced for --trace 1.
func budgets(o options) (untraced, traced float64) {
	if o.trace {
		return o.seconds / 2, o.seconds / 2
	}
	return o.seconds, 0
}

// measureSim runs a simulator workload: set-up, untraced replays, and
// for --trace 1 traced replays plus an untimed invariant replay. Every
// replay of the seed's trace must produce the identical Result.
func measureSim(o options, c simCase, fp *fingerprint) (measurement, error) {
	m := measurement{raw: map[string]float64{}}
	sc := o.scale
	ref := newHostRef()
	b, setup, err := timeSetup(ref, sc.setups, func() (*simBench, func(), error) {
		return newSimBench(c, sc, o.seed), nil, nil
	})
	if err != nil {
		return m, err
	}
	fp.Params = fmt.Sprintf("trace=%s profile=%+v config={%s} pretrain=%+v setups=%d",
		c.spec, b.prof, b.c.cfg.Canonical(), sc.pretrain, sc.setups)

	// The first replay in a process runs on a cold heap (fresh pages,
	// small GC target) and is markedly slower; it warms up untimed and
	// sets the reference Result every later replay must reproduce.
	warm := b.untracedReplay()
	m.attempted++
	untracedS, tracedS := budgets(o)
	var reps []simReplay
	p0 := sampleProc()
	br := newBracket(ref)
	err = phase(untracedS, func() error {
		r := b.untracedReplay()
		r.idx = br.next()
		m.attempted++
		reps = append(reps, r)
		return sameResult(warm.res, r.res)
	})
	p1 := sampleProc()
	if err != nil {
		m.failed++
		return m, fmt.Errorf("untraced replays disagree: %w", err)
	}
	var idx []float64
	for _, r := range reps {
		idx = append(idx, r.idx)
	}
	hostNote(&m, median(idx), setup)
	if !o.trace {
		if err := simE2E(m.raw, reps); err != nil {
			m.failed++
			return m, err
		}
		m.notes = append(m.notes, ratesNote("raw replay M/s:", rates(reps)), fmt.Sprintf("%d replays of %d accesses, each bracketed by reference probes; at nominal host speed, throughput from the median times of chunks of %d slices, batch latency quantiles over the median latencies of %.0f slices of up to %d accesses",
			len(reps), reps[0].res.Accesses, medianChunk, m.raw["batch_samples"], clockBatch))
		return m, nil
	}

	tb := b
	if o.corrupt == "result" {
		other := *b
		other.prof.Seed++
		tb = &other
	}
	ticks := reps[0].res.Ticks
	var traced []simReplay
	err = phase(tracedS, func() error {
		r := tb.tracedReplay(ticks, false)
		m.attempted++
		traced = append(traced, r)
		return sameResult(reps[0].res, r.res)
	})
	if err == nil {
		inv := tb.tracedReplay(ticks, true)
		m.attempted++
		if inv.res.InvariantErr != nil {
			err = fmt.Errorf("machine invariants: %w", inv.res.InvariantErr)
		} else {
			err = sameResult(reps[0].res, inv.res)
		}
	}
	if err != nil {
		m.failed++
		return m, fmt.Errorf("traced replay gate: %w", err)
	}
	m.notes = simLayers(m.raw, traced)
	var accesses float64
	for _, r := range reps {
		accesses += float64(r.res.Accesses)
	}
	procLayer(m.raw, p0, p1, accesses)
	overhead(&m, rates(reps), rates(traced))
	return m, nil
}

// hostNote records setup_s, the median set-up time at nominal host
// speed, and host.speed_index, the run's median speed index idx, and
// lists the raw set-up times.
func hostNote(m *measurement, idx float64, ds setupTimes) {
	m.raw["setup_s"] = median(ds.norm)
	m.raw["host.speed_index"] = idx
	m.notes = append(m.notes, fmt.Sprintf("host speed index %.4f (reference kernel at %.4g Mops/s, nominal %.4g)", idx, idx*refNominalOps/1e6, refNominalOps/1e6),
		ratesNote("raw set-up s:", ds.raw))
}

// rates returns each replay's or round's throughput in M/s.
func rates[T interface{ maccessPerS() float64 }](units []T) []float64 {
	out := make([]float64, len(units))
	for i, u := range units {
		out[i] = u.maccessPerS()
	}
	return out
}

func ratesNote(label string, xs []float64) string {
	for _, x := range xs {
		label += fmt.Sprintf(" %.3g", x)
	}
	return label
}

// overhead records the tracing overhead: the traced run's median
// throughput loss against the untraced run of the same length.
func overhead(m *measurement, untraced, traced []float64) {
	u, t := median(untraced), median(traced)
	m.raw["trace.overhead_share"] = 1 - t/u
	m.notes = append(m.notes, fmt.Sprintf("tracing overhead: untraced %.4g M/s, traced %.4g M/s", u, t))
}

// measureServe runs the serving workload: set-up, untraced rounds, and
// for --trace 1 traced rounds. Every round must ack every generated
// record with nothing shed, lost or failed.
func measureServe(o options, fp *fingerprint) (measurement, error) {
	m := measurement{raw: map[string]float64{}}
	sc := o.scale
	prof := workloads.Profile{Div: sc.serveDiv, PatternAccesses: sc.servePerClient, AppAccesses: sc.servePerClient, Seed: o.seed}
	fp.Params = fmt.Sprintf("trace=YCSB profile=%+v clients=%d window=%d batch=%d machine=1:4 pretrain=%+v setups=%d",
		prof, serveClients, serveWindow, serveBatch, sc.pretrain, sc.setups)

	ref := newHostRef()
	b, setup, err := timeSetup(ref, sc.setups, func() (*serveBench, func(), error) {
		mig, thr := pretrain(sc.pretrain)
		traces, foot := genTraces(prof, sc.servePerClient)
		b := &serveBench{prof: prof, foot: foot, mig: mig, thr: thr, traces: traces}
		st, err := b.start(false)
		if err != nil {
			return nil, nil, err
		}
		return b, st.stop, nil
	})
	if err != nil {
		return m, err
	}
	batches := int64(b.batches())

	// do runs one round between two reference probes and books its
	// batches against the ledger.
	br := newBracket(ref)
	do := func(traced bool, drop bool) (serveRound, error) {
		r, err := b.round(traced, drop)
		if err != nil {
			return r, err
		}
		r.idx = br.next()
		sent, failed, _ := r.ledger()
		m.attempted += batches
		m.failed += failed + batches - sent
		return r, r.check()
	}

	// As in the simulator, one untimed round warms the heap and the
	// loopback path first; it must pass the same gate.
	if _, err := do(false, false); err != nil {
		return m, fmt.Errorf("warm-up round: %w", err)
	}
	untracedS, tracedS := budgets(o)
	var rounds []serveRound
	p0 := sampleProc()
	err = phase(untracedS, func() error {
		r, err := do(false, o.corrupt == "drop-batch" && len(rounds) == 0)
		rounds = append(rounds, r)
		return err
	})
	p1 := sampleProc()
	if err != nil {
		return m, fmt.Errorf("serving round: %w", err)
	}
	var idx []float64
	for _, r := range rounds {
		idx = append(idx, r.idx)
	}
	hostNote(&m, median(idx), setup)
	if !o.trace {
		serveE2E(m.raw, rounds)
		m.notes = append(m.notes, ratesNote("raw round M/s:", rates(rounds)), fmt.Sprintf("%d rounds of %d records, each bracketed by reference probes; batch latency quantiles per round over %.0f batches of %d records in all; medians over rounds at nominal host speed",
			len(rounds), rounds[0].generated, m.raw["batch_samples"], serveBatch))
		return m, nil
	}

	var traced []serveRound
	err = phase(tracedS, func() error {
		r, err := do(true, false)
		traced = append(traced, r)
		return err
	})
	if err == nil {
		err = serveLayers(m.raw, traced)
	}
	if err != nil {
		return m, fmt.Errorf("traced serving round: %w", err)
	}
	var records float64
	for _, r := range rounds {
		records += float64(r.generated)
	}
	procLayer(m.raw, p0, p1, records)
	overhead(&m, rates(rounds), rates(traced))
	m.notes = append(m.notes, serveNotes(m.raw)...)
	return m, nil
}
