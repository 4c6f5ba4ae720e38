package core

import (
	"encoding/json"
	"net/http"
	"strconv"

	"artmem/internal/telemetry"
)

// healthzStatus is the JSON document served at /healthz. The field set
// is fixed (schema-pinned) so load balancers and the loopback smoke
// can rely on it.
type healthzStatus struct {
	// Status is "ok", "degraded" (the agent fell back to heuristic
	// mode or a worker stalled/panicked), or "draining" (graceful
	// shutdown in progress — served with 503 so balancers stop
	// routing).
	Status string `json:"status"`
	// Degraded and Draining are the raw flags behind Status.
	Degraded bool `json:"degraded"`
	Draining bool `json:"draining"`
	// Liveness detail from the watchdog Health snapshot.
	SamplingBeats  uint64 `json:"sampling_beats"`
	MigrationBeats uint64 `json:"migration_beats"`
	WatchdogStalls uint64 `json:"watchdog_stalls"`
	Panics         uint64 `json:"panics"`
}

// healthzHandler serves GET /healthz from a runtime's control loop:
// the watchdog Health snapshot plus the graceful-shutdown flag. Draining
// answers 503 (stop routing new work here), everything else 200 — a
// degraded daemon still serves traffic, just on the heuristic
// fallback, and the body says so.
func healthzHandler(s *loop) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h := s.Health()
		st := healthzStatus{
			Degraded:       h.Degraded || h.Panics > 0 || h.SamplingStalls+h.MigrationStalls > 0,
			Draining:       s.Draining(),
			SamplingBeats:  h.SamplingBeats,
			MigrationBeats: h.MigrationBeats,
			WatchdogStalls: h.SamplingStalls + h.MigrationStalls,
			Panics:         h.Panics,
		}
		switch {
		case st.Draining:
			st.Status = "draining"
		case st.Degraded:
			st.Status = "degraded"
		default:
			st.Status = "ok"
		}
		w.Header().Set("Content-Type", "application/json")
		if st.Draining {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(st)
	}
}

// newControlMux starts a runtime's control surface with the routes
// every runtime serves identically: /healthz from the control loop,
// and /metrics (Prometheus text) plus /metrics.json from the registry.
func newControlMux(l *loop, reg *telemetry.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", healthzHandler(l))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// The registry's pull closures take the runtime lock themselves;
		// this handler must not hold it (see internal/core/telemetry.go).
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, reg.Snapshot())
	})
	return mux
}

// writeJSON serves v as a JSON document.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// QueryInt parses the optional non-negative integer query parameter
// key, returning def when it is absent. A malformed value answers 400
// "bad <key>" and reports ok=false. Every control and observability
// handler shares it, so their parameter errors read the same.
func QueryInt(w http.ResponseWriter, r *http.Request, key string, def int) (v int, ok bool) {
	q := r.URL.Query().Get(key)
	if q == "" {
		return def, true
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 0 {
		http.Error(w, "bad "+key, http.StatusBadRequest)
		return 0, false
	}
	return v, true
}
