package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"artmem/internal/core"
	"artmem/internal/memsim"
	"artmem/internal/telemetry"
	"artmem/internal/tier"
)

// TestObserveEndpointsDisabled pins the degrade contract: the routes
// exist on every daemon, but with the features off they answer 404
// with a hint — what cmd/artmon and cmd/artrace key off to treat the
// feature as absent.
func TestObserveEndpointsDisabled(t *testing.T) {
	mux := http.NewServeMux()
	var obs serveObs // -serve off: no journal, no monitor
	obs.mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, path := range []string{"/spans", "/slo"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("disabled %s = %d, want 404", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "disabled") {
			t.Errorf("disabled %s body lacks a hint: %s", path, body)
		}
	}
}

// TestObserveEndpointsEnabled drives the mounted /spans and /slo
// handlers with the features on: JSONL and JSON payloads, parameter
// validation, and the journal contents round-tripping through HTTP.
func TestObserveEndpointsEnabled(t *testing.T) {
	obs := newServeObs(1, []telemetry.SLOObjective{telemetry.BatchSLO(), telemetry.BatchSLO()})
	obs.spans.Append(telemetry.Span{Seq: 1, Tenant: 0, QueueNs: 100, ApplyNs: 50, Outcome: telemetry.SpanAcked})
	obs.spans.Append(telemetry.Span{Seq: 2, Tenant: 1, QueueNs: 200, ApplyNs: 70, Outcome: telemetry.SpanAcked})
	obs.slo.Observe(0, 1000, true)
	mux := http.NewServeMux()
	obs.mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ct := get("/spans")
	if code != 200 || ct != "application/x-ndjson" {
		t.Fatalf("/spans = %d %q", code, ct)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("/spans returned %d lines, want 2:\n%s", len(lines), body)
	}
	var sp telemetry.Span
	if err := json.Unmarshal([]byte(lines[0]), &sp); err != nil || sp.Seq != 1 {
		t.Errorf("first span line = %+v (%v)", sp, err)
	}

	// Tenant filter and tail limit.
	if _, body, _ := get("/spans?tenant=1"); strings.Count(body, "\n") != 1 {
		t.Errorf("tenant filter body:\n%s", body)
	}
	if _, body, _ := get("/spans?n=1"); !strings.Contains(body, `"seq":2`) {
		t.Errorf("tail limit did not keep the newest span:\n%s", body)
	}
	// Parameter errors answer 400 with the shared parser's body; absent
	// parameters default to every span (n=0) of every tenant (-1).
	for _, c := range []struct{ path, body string }{
		{"/spans?n=x", "bad n\n"},
		{"/spans?n=-1", "bad n\n"},
		{"/spans?tenant=x", "bad tenant\n"},
		{"/spans?tenant=-2", "bad tenant\n"},
		{"/spans?n=1&tenant=x", "bad tenant\n"},
	} {
		if code, body, _ := get(c.path); code != http.StatusBadRequest || body != c.body {
			t.Errorf("%s = %d %q, want 400 %q", c.path, code, body, c.body)
		}
	}
	for _, path := range []string{"/spans?n=0", "/spans?n=", "/spans?tenant="} {
		if code, body, _ := get(path); code != 200 || strings.Count(body, "\n") != 2 {
			t.Errorf("%s = %d, want both spans:\n%s", path, code, body)
		}
	}

	code, body, ct = get("/slo")
	if code != 200 || ct != "application/json" {
		t.Fatalf("/slo = %d %q", code, ct)
	}
	var rep telemetry.SLOReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/slo not a report: %v", err)
	}
	if len(rep.Tenants) != 2 || rep.Tenants[0].Windows[0].Batches != 1 {
		t.Errorf("/slo report = %+v", rep)
	}
}

// TestRegisterSetsSLOObjective checks runtime tenant registration
// rewires the slot's SLO objective to its class.
func TestRegisterSetsSLOObjective(t *testing.T) {
	rs := testReplaySet(t)
	obs := newServeObs(0, []telemetry.SLOObjective{
		telemetry.BatchSLO(), telemetry.BatchSLO(), telemetry.BatchSLO(),
	})
	rs.slo = obs.slo

	if w := post(t, rs.handleRegister, "/register?workload=SSSP&class=latency"); w.Code != http.StatusOK {
		t.Fatalf("register = %d: %s", w.Code, w.Body)
	}
	rep := obs.slo.Report()
	if rep.Tenants[1].Class != "latency" {
		t.Errorf("slot 1 objective class = %q, want latency", rep.Tenants[1].Class)
	}
	if rep.Tenants[0].Class != "batch" {
		t.Errorf("slot 0 objective class = %q, want batch (untouched)", rep.Tenants[0].Class)
	}
}

// TestTieredDaemonRoutes pins the N-tier daemon's route set: the same
// daemonHandler as the other modes, so the chain control surface, the
// pprof surface and the /spans and /slo 404-with-hint routes are all
// mounted.
func TestTieredDaemonRoutes(t *testing.T) {
	ch, err := tier.ParseChain("DRAM:cap=16/CXL:cap=16/PM")
	if err != nil {
		t.Fatal(err)
	}
	mcfg := memsim.DefaultConfig(64*64*1024, 0, 64*1024)
	mcfg.Chain = ch
	sys := core.NewTieredSystem(core.TieredSystemConfig{Machine: mcfg})
	srv := httptest.NewServer(daemonHandler(sys.ControlHandler(), serveObs{}, nil))
	defer srv.Close()

	for _, c := range []struct {
		path string
		code int
		body string // substring the body must carry
	}{
		{"/healthz", http.StatusOK, `"status":"ok"`},
		{"/tiers", http.StatusOK, `"boundaries"`},
		{"/stats", http.StatusOK, `"shadow_discards"`},
		{"/metrics", http.StatusOK, "artmem_sampling_beats_total"},
		{"/metrics.json", http.StatusOK, "artmem_tier_pages"},
		{"/trace?n=5", http.StatusOK, ""},
		{"/debug/pprof/", http.StatusOK, "goroutine"},
		{"/debug/pprof/cmdline", http.StatusOK, ""},
		{"/spans", http.StatusNotFound, "disabled"},
		{"/slo", http.StatusNotFound, "disabled"},
		{"/tenants", http.StatusNotFound, ""},
	} {
		resp, err := srv.Client().Get(srv.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s = %d, want %d", c.path, resp.StatusCode, c.code)
		}
		if !strings.Contains(string(body), c.body) {
			t.Errorf("%s body lacks %q:\n%.300s", c.path, c.body, body)
		}
	}
}
