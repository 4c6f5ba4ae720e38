package core

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"artmem/internal/telemetry"
)

// onlineRuntime is the surface every online runtime gets from the
// shared control loop, plus its control handler and telemetry.
type onlineRuntime interface {
	Start()
	Stop()
	Health() Health
	SetDraining(bool)
	ControlHandler() http.Handler
	Telemetry() *telemetry.Set
}

// livenessSeries are the control loop's series, registered under the
// same names by every runtime.
var livenessSeries = []string{
	"artmem_control_busy_ns_total",
	"artmem_migration_beats_total",
	"artmem_migration_stalls_total",
	"artmem_sampling_beats_total",
	"artmem_sampling_stalls_total",
	"artmem_worker_panics_total",
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRuntimeLifecycle drives the shared control loop through each
// runtime: idempotent Start/Stop (and Stop without Start), advancing
// beats, a panicking pass recovered and counted, /healthz answering
// 503 while draining, and identical liveness series in every runtime.
func TestRuntimeLifecycle(t *testing.T) {
	const page = 64 * 1024
	cases := []struct {
		name string
		// build constructs the runtime with the given policy Debug hook
		// and returns it with a func feeding it one round of accesses.
		build func(t *testing.T, debug func(string, ...any)) (onlineRuntime, func())
	}{
		{"System", func(t *testing.T, debug func(string, ...any)) (onlineRuntime, func()) {
			cfg := testSystemConfig()
			cfg.Policy.Debug = debug
			s := NewSystem(cfg)
			return s, func() {
				for p := uint64(0); p < 32; p++ {
					s.Access(p*page, false)
				}
			}
		}},
		{"MultiSystem", func(t *testing.T, debug func(string, ...any)) (onlineRuntime, func()) {
			cfg := testMultiConfig()
			for i := range cfg.Tenants {
				cfg.Tenants[i].Policy.Debug = debug
			}
			s := NewMultiSystem(cfg)
			return s, func() {
				for p := uint64(0); p < 32; p++ {
					s.Access(0, p*page, false)
					s.Access(1, (64+p)*page, false)
				}
			}
		}},
		{"TieredSystem", func(t *testing.T, debug func(string, ...any)) (onlineRuntime, func()) {
			cfg := testTieredConfig(t, "DRAM:cap=16/CXL:cap=16/PM", false)
			cfg.Policy.Debug = debug
			s := NewTieredSystem(cfg)
			return s, func() {
				for p := uint64(0); p < 48; p++ {
					s.Access(p*page, false)
				}
			}
		}},
	}

	help := map[string]string{} // liveness HELP lines, per runtime
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rt, _ := c.build(t, nil)
			rt.Stop() // without Start: must not hang or panic
			rt.Start()
			rt.Start() // no-op
			waitFor(t, "beats to advance", func() bool {
				h := rt.Health()
				return h.SamplingBeats > 0 && h.MigrationBeats > 0
			})
			rt.Stop()
			rt.Stop() // no-op
			if h := rt.Health(); h.Panics != 0 {
				t.Errorf("healthy run recovered %d panics", h.Panics)
			}

			srv := httptest.NewServer(rt.ControlHandler())
			if code, _ := getHealthz(t, srv); code != http.StatusOK {
				t.Errorf("healthz before draining = %d, want 200", code)
			}
			rt.SetDraining(true)
			if code, doc := getHealthz(t, srv); code != http.StatusServiceUnavailable || doc["status"] != "draining" {
				t.Errorf("draining healthz = %d %v, want 503/draining", code, doc)
			}
			srv.Close()

			var sb strings.Builder
			if err := rt.Telemetry().Registry.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			var lines []string
			for _, l := range strings.Split(sb.String(), "\n") {
				f := strings.Fields(l)
				if len(f) >= 3 && f[1] == "HELP" &&
					(strings.HasSuffix(f[2], "_beats_total") || strings.HasSuffix(f[2], "_stalls_total") ||
						strings.HasSuffix(f[2], "_panics_total") || strings.HasSuffix(f[2], "_busy_ns_total")) {
					lines = append(lines, l)
				}
			}
			sort.Strings(lines)
			help[c.name] = strings.Join(lines, "\n")
			snap := rt.Telemetry().Registry.Snapshot()
			for _, name := range livenessSeries {
				if _, ok := snap[name]; !ok {
					t.Errorf("liveness series %s missing", name)
				}
			}

			// A panicking pass is recovered and counted; the loop keeps
			// running and Stop still returns.
			rt, feed := c.build(t, func(string, ...any) { panic("injected tick panic") })
			rt.Start()
			waitFor(t, "a recovered panic", func() bool {
				feed()
				return rt.Health().Panics > 0
			})
			before := rt.Health().SamplingBeats
			waitFor(t, "sampling to continue after the panic", func() bool {
				return rt.Health().SamplingBeats > before
			})
			done := make(chan struct{})
			go func() { rt.Stop(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("Stop deadlocked after recovered panics")
			}
		})
	}

	// Same liveness names and help strings in every runtime.
	if len(help) == len(cases) {
		want := help[cases[0].name]
		if strings.Count(want, "\n")+1 != len(livenessSeries) {
			t.Errorf("%s liveness HELP lines:\n%s\nwant one per series in %v", cases[0].name, want, livenessSeries)
		}
		for _, c := range cases[1:] {
			if help[c.name] != want {
				t.Errorf("%s liveness series differ from %s:\n%s\nvs\n%s",
					c.name, cases[0].name, help[c.name], want)
			}
		}
	}
}
