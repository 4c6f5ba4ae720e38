package main

import (
	"net/http"

	"artmem/internal/core"
	"artmem/internal/telemetry"
)

// serveObs bundles the daemon's serving-observability state: the
// hash-sampled latency span journal (served at /spans) and the
// per-tenant SLO burn-rate monitor (served at /slo). Both exist only
// when the streaming access API is enabled; the handlers answer 404
// otherwise, which clients (cmd/artmon, cmd/artrace) treat as "feature
// absent" — the same degrade convention as /pagetrace and /tenants.
type serveObs struct {
	spans *telemetry.SpanJournal
	slo   *telemetry.SLOMonitor
}

// newServeObs builds the journal (when spanRate > 0) and the monitor
// over the given per-slot objectives.
func newServeObs(spanRate int, objectives []telemetry.SLOObjective) serveObs {
	var obs serveObs
	if spanRate > 0 {
		obs.spans = telemetry.NewSpanJournal(0, spanRate)
	}
	obs.slo = telemetry.NewSLOMonitor(objectives, nil, nil)
	return obs
}

// mount registers the observability endpoints. Mounted unconditionally
// by daemonHandler in every daemon mode: a disabled feature answers 404
// with a hint, keeping the route surface identical across
// configurations.
func (o serveObs) mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /spans", func(w http.ResponseWriter, r *http.Request) {
		if o.spans == nil {
			http.Error(w, "span journal disabled (enable with -serve and -spans N)", http.StatusNotFound)
			return
		}
		n, ok := core.QueryInt(w, r, "n", 0) // 0: everything retained
		if !ok {
			return
		}
		tenant, ok := core.QueryInt(w, r, "tenant", -1) // -1: every tenant
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		o.spans.WriteJSONL(w, n, tenant)
	})
	mux.HandleFunc("GET /slo", func(w http.ResponseWriter, r *http.Request) {
		if o.slo == nil {
			http.Error(w, "SLO monitor disabled (enable with -serve)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		o.slo.WriteJSON(w)
	})
}
