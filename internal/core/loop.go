package core

import (
	"sync"
	"sync/atomic"
	"time"

	"artmem/internal/telemetry"
)

// loop is the online control loop every runtime shares — the userspace
// analogue of the paper's per-CPU ksampled threads and the kmigrated
// kernel thread (§4.4). It owns the run state, the panic-recovering
// sampling and migration threads, the liveness watchdog, the liveness
// counters, and the graceful-shutdown flag. A runtime embeds it and
// supplies only its passes (controlPasses); every pass runs under the
// runtime's lock, the same lock its access path takes.
//
// Resilience: both worker threads recover from panics (a crashing
// policy tick must not take the daemon down), and the watchdog
// observes per-worker heartbeats so a stalled loop is detected and
// surfaced through Health rather than silently freezing the control
// loop.
type loop struct {
	lock   sync.Locker
	passes controlPasses

	samplingInterval  time.Duration
	migrationInterval time.Duration
	watchdogInterval  time.Duration

	runMu   sync.Mutex // guards started and stop
	started bool
	stop    chan struct{}
	wg      sync.WaitGroup

	// Liveness accounting, written by the worker threads and read by
	// the watchdog and Health without taking the runtime lock. The
	// counters live on the telemetry registry (atomic underneath), so
	// they show up on /metrics without separate plumbing.
	sampleBeats   *telemetry.Counter
	migrateBeats  *telemetry.Counter
	sampleStalls  *telemetry.Counter
	migrateStalls *telemetry.Counter
	panics        *telemetry.Counter
	ctlBusy       *telemetry.Counter

	// draining is set by the daemon during graceful shutdown so
	// /healthz can advertise the state to load balancers.
	draining atomic.Bool
}

// controlPasses is what a runtime plugs into its loop. Every method is
// called with the runtime's lock held.
type controlPasses interface {
	// samplePass drains the sampled access stream into the agents'
	// recency structures (one ksampled iteration).
	samplePass()
	// migratePass runs one RL decision period and its migrations (one
	// kmigrated iteration).
	migratePass()
	// degraded reports whether any agent runs the heuristic fallback.
	degraded() bool
}

// init wires the loop to a runtime: lock guards the runtime's state,
// passes supplies the work, and the liveness series register on reg.
// Zero intervals use the defaults — 2ms sampling (the paper's sampling
// thread period), 20ms migration (scaled down from the paper's
// seconds-long interval so examples adapt within seconds), and a 1s
// watchdog; a negative watchdog interval disables the watchdog.
func (l *loop) init(lock sync.Locker, reg *telemetry.Registry, passes controlPasses,
	sampling, migration, watchdog time.Duration) {
	if sampling == 0 {
		sampling = 2 * time.Millisecond
	}
	if migration == 0 {
		migration = 20 * time.Millisecond
	}
	if watchdog == 0 {
		watchdog = time.Second
	}
	l.lock, l.passes = lock, passes
	l.samplingInterval, l.migrationInterval, l.watchdogInterval = sampling, migration, watchdog
	l.sampleBeats = reg.Counter("artmem_sampling_beats_total",
		"Completed sampling-thread iterations (ksampled heartbeats).")
	l.migrateBeats = reg.Counter("artmem_migration_beats_total",
		"Completed migration-thread iterations (kmigrated heartbeats).")
	l.sampleStalls = reg.Counter("artmem_sampling_stalls_total",
		"Watchdog intervals in which the sampling thread made no progress.")
	l.migrateStalls = reg.Counter("artmem_migration_stalls_total",
		"Watchdog intervals in which the migration thread made no progress.")
	l.panics = reg.Counter("artmem_worker_panics_total",
		"Recovered panics in the worker threads.")
	l.ctlBusy = reg.Counter("artmem_control_busy_ns_total",
		"Wall nanoseconds the control loop held the system lock (sampling drains, migration passes) — the serve layer's migration-stall attribution source.")
}

// Start launches the sampling, migration, and watchdog threads. It is a
// no-op if already started.
func (l *loop) Start() {
	l.runMu.Lock()
	defer l.runMu.Unlock()
	if l.started {
		return
	}
	l.started = true
	l.stop = make(chan struct{})
	l.wg.Add(2)
	go l.thread(l.stop, l.samplingInterval, l.sampleBeats, l.passes.samplePass)
	go l.thread(l.stop, l.migrationInterval, l.migrateBeats, l.passes.migratePass)
	if l.watchdogInterval > 0 {
		l.wg.Add(1)
		go l.watchdogThread(l.stop)
	}
}

// Stop halts the background threads and waits for them. Idempotent,
// and a no-op on a never-started runtime.
func (l *loop) Stop() {
	l.runMu.Lock()
	defer l.runMu.Unlock()
	if !l.started {
		return
	}
	l.started = false
	close(l.stop)
	l.wg.Wait()
}

// Health is a snapshot of the runtime's liveness and resilience state.
type Health struct {
	// SamplingBeats and MigrationBeats count completed worker
	// iterations; a live system's beats keep advancing.
	SamplingBeats  uint64
	MigrationBeats uint64
	// SamplingStalls and MigrationStalls count watchdog intervals during
	// which the corresponding thread made no progress.
	SamplingStalls  uint64
	MigrationStalls uint64
	// Panics counts worker-thread panics that were recovered.
	Panics uint64
	// Degraded reports whether any agent is in the heuristic fallback.
	Degraded bool
}

// Health returns the runtime's liveness snapshot. Safe to call
// concurrently with a running runtime.
func (l *loop) Health() Health {
	l.lock.Lock()
	degraded := l.passes.degraded()
	l.lock.Unlock()
	return Health{
		SamplingBeats:   l.sampleBeats.Value(),
		MigrationBeats:  l.migrateBeats.Value(),
		SamplingStalls:  l.sampleStalls.Value(),
		MigrationStalls: l.migrateStalls.Value(),
		Panics:          l.panics.Value(),
		Degraded:        degraded,
	}
}

// ControlBusyNs returns the cumulative wall nanoseconds the worker
// threads held the runtime lock. Access batches contend with exactly
// that lock, so differencing this counter across a batch's queue
// residency attributes its migration/sampling stall
// (serve.Config.StallNs).
func (l *loop) ControlBusyNs() int64 { return int64(l.ctlBusy.Value()) }

// SetDraining marks (or clears) the graceful-shutdown state advertised
// by /healthz. The control loop keeps running; this is pure signaling
// for load balancers.
func (l *loop) SetDraining(v bool) { l.draining.Store(v) }

// Draining reports the graceful-shutdown state set by SetDraining.
func (l *loop) Draining() bool { return l.draining.Load() }

// thread runs pass once per interval until stop closes.
func (l *loop) thread(stop <-chan struct{}, interval time.Duration, beat *telemetry.Counter, pass func()) {
	defer l.wg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			l.runProtected(beat, pass)
		}
	}
}

// runProtected executes one worker iteration under the runtime lock,
// recovering from panics (the lock is released by the deferred unlock
// before the recover fires, so a panicking tick cannot poison the
// mutex) and charging the lock-hold time to the busy counter. The beat
// advances only on successful iterations.
func (l *loop) runProtected(beat *telemetry.Counter, pass func()) {
	defer func() {
		if r := recover(); r != nil {
			l.panics.Inc()
		}
	}()
	l.lock.Lock()
	t0 := time.Now()
	defer func() {
		l.ctlBusy.Add(uint64(time.Since(t0)))
		l.lock.Unlock()
	}()
	pass()
	beat.Inc()
}

// watchdogState is the watchdog's memory between checks: the heartbeat
// values seen at the previous interval. Extracted (together with
// watchdogCheck) so Health transitions are unit-testable without real
// timers.
type watchdogState struct {
	lastSample, lastMigrate uint64
}

// watchdogCheck performs one watchdog interval's work: any worker whose
// heartbeat did not advance since the previous check is counted as
// stalled. Stall counts are monotonic — a recovered thread stops
// accumulating them but past stalls remain visible in Health.
func (l *loop) watchdogCheck(w *watchdogState) {
	if cur := l.sampleBeats.Value(); cur == w.lastSample {
		l.sampleStalls.Inc()
	} else {
		w.lastSample = cur
	}
	if cur := l.migrateBeats.Value(); cur == w.lastMigrate {
		l.migrateStalls.Inc()
	} else {
		w.lastMigrate = cur
	}
}

// watchdogThread checks once per interval that both workers' heartbeats
// advanced.
func (l *loop) watchdogThread(stop <-chan struct{}) {
	defer l.wg.Done()
	tick := time.NewTicker(l.watchdogInterval)
	defer tick.Stop()
	var w watchdogState
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			l.watchdogCheck(&w)
		}
	}
}
