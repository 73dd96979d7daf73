package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"vdcpower/internal/guard"
	"vdcpower/internal/obs"
)

// breakerGauges reads the breaker state/cooldown gauges and transition
// counter straight off the registry (a lookup returns the live series).
func breakerGauges(s *Server) (state, cooldown, trans float64) {
	return s.metrics.Gauge("vdcpower_breaker_state", "").Value(),
		s.metrics.Gauge("vdcpower_breaker_cooldown_ticks", "").Value(),
		s.metrics.Counter("vdcpower_breaker_transitions_total", "").Value()
}

// TestBreakerTransitionSequence is the satellite regression test: drive
// the breaker through closed -> open -> (cooldown) -> half-open ->
// open -> half-open -> closed with direct recordStep/allowStep calls
// and assert the exported gauges, the transition counter, and the
// scorecard mirror every state along the way.
func TestBreakerTransitionSequence(t *testing.T) {
	prev := logf
	logf = func(string, ...any) {}
	defer func() { logf = prev }()
	s := testServer(t)
	boom := errors.New("boom")

	if st, cd, tr := breakerGauges(s); st != 0 || cd != 0 || tr != 0 {
		t.Fatalf("fresh gauges = %v/%v/%v, want zeros", st, cd, tr)
	}

	// Failures up to (threshold-1) keep the breaker closed.
	for i := 0; i < guard.BreakerThreshold-1; i++ {
		s.recordStep(boom)
		if st, _, tr := breakerGauges(s); st != float64(guard.Closed) || tr != 0 {
			t.Fatalf("after %d failures: state=%v transitions=%v, want closed/0", i+1, st, tr)
		}
	}
	// The threshold-th failure opens it: cooldown armed.
	s.recordStep(boom)
	if st, cd, tr := breakerGauges(s); st != float64(guard.Open) || cd != float64(guard.BreakerCooldown) || tr != 1 {
		t.Fatalf("open gauges = %v/%v/%v, want %d/%d/1", st, cd, tr, guard.Open, guard.BreakerCooldown)
	}

	// Cooldown ticks: absorbed steps decrement the gauge, no transition.
	for i := 0; i < guard.BreakerCooldown-1; i++ {
		if s.allowStep() {
			t.Fatalf("cooldown tick %d allowed a step", i)
		}
	}
	if st, cd, tr := breakerGauges(s); st != float64(guard.Open) || cd != 1 || tr != 1 {
		t.Fatalf("cooldown gauges = %v/%v/%v, want open/1/1", st, cd, tr)
	}

	// Last tick half-opens: the step runs as a probe.
	if !s.allowStep() {
		t.Fatal("probe tick did not allow a step")
	}
	if st, cd, tr := breakerGauges(s); st != float64(guard.HalfOpen) || cd != 0 || tr != 2 {
		t.Fatalf("half-open gauges = %v/%v/%v, want half-open/0/2", st, cd, tr)
	}

	// Failed probe re-opens and re-arms the cooldown.
	s.recordStep(boom)
	if st, cd, tr := breakerGauges(s); st != float64(guard.Open) || cd != float64(guard.BreakerCooldown) || tr != 3 {
		t.Fatalf("re-open gauges = %v/%v/%v, want open/%d/3", st, cd, tr, guard.BreakerCooldown)
	}

	// Second cooldown, then a successful probe closes the breaker.
	for i := 0; i < guard.BreakerCooldown-1; i++ {
		s.allowStep()
	}
	if !s.allowStep() {
		t.Fatal("second probe tick did not allow a step")
	}
	s.recordStep(nil)
	if st, cd, tr := breakerGauges(s); st != float64(guard.Closed) || cd != 0 || tr != 5 {
		t.Fatalf("closed gauges = %v/%v/%v, want closed/0/5", st, cd, tr)
	}

	// The scorecard mirrored every transition and audited each one.
	rep := s.obs.Report()
	if rep.Breaker.State != "closed" || rep.Breaker.Transitions != 5 {
		t.Fatalf("scorecard breaker = %+v, want closed with 5 transitions", rep.Breaker)
	}
	var actions []string
	for _, d := range s.obs.Audit().Records() {
		if strings.HasPrefix(d.Action, "breaker-") {
			actions = append(actions, d.Action)
		}
	}
	want := []string{"breaker-open", "breaker-half-open", "breaker-open", "breaker-half-open", "breaker-close"}
	if len(actions) != len(want) {
		t.Fatalf("audit actions = %v, want %v", actions, want)
	}
	for i := range want {
		if actions[i] != want[i] {
			t.Fatalf("audit actions = %v, want %v", actions, want)
		}
	}
}

// TestScorecardEndpoint: /scorecard serves the report document with
// per-app health and step-wall quantiles after some real steps.
func TestScorecardEndpoint(t *testing.T) {
	s := testServer(t)
	for i := 0; i < 3; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	rr := get(t, s.Handler(), "/scorecard")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	var doc ScorecardDoc
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decoding /scorecard: %v (%s)", err, rr.Body.String())
	}
	if doc.Schema != obs.SchemaVersion {
		t.Fatalf("schema = %q, want %q", doc.Schema, obs.SchemaVersion)
	}
	if doc.Label != "serve" || doc.Steps != 3 {
		t.Fatalf("label/steps = %q/%d, want serve/3", doc.Label, doc.Steps)
	}
	if len(doc.Apps) != 2 {
		t.Fatalf("apps = %d, want 2", len(doc.Apps))
	}
	for _, a := range doc.Apps {
		if a.Samples == 0 {
			t.Fatalf("app %s has no response samples", a.Name)
		}
	}
	if doc.MPC.Solves == 0 {
		t.Fatal("no MPC solves scored")
	}
	if doc.StepWall.Count != 3 || doc.StepWall.P50Sec <= 0 || doc.StepWall.P99Sec < doc.StepWall.P50Sec {
		t.Fatalf("step-wall quantiles = %+v", doc.StepWall)
	}
	if doc.SLO.Verdict == obs.VerdictNoData {
		t.Fatal("SLO verdict still no-data after steps")
	}
}

// TestScorecardEndpointEmpty: before any step the endpoint still serves
// a valid document (step_wall zeros, not NaN — NaN would break JSON).
func TestScorecardEndpointEmpty(t *testing.T) {
	s := testServer(t)
	rr := get(t, s.Handler(), "/scorecard")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	var doc ScorecardDoc
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decoding fresh /scorecard: %v", err)
	}
	if doc.StepWall.Count != 0 || doc.StepWall.P50Sec != 0 {
		t.Fatalf("fresh step-wall = %+v, want zeros", doc.StepWall)
	}
}

// TestMetricsCarrySLOAndBreakerSeries: the exposition includes the new
// burn-rate and breaker families after a scrape.
func TestMetricsCarrySLOAndBreakerSeries(t *testing.T) {
	s := testServer(t)
	for i := 0; i < 2; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	body := get(t, s.Handler(), "/metrics").Body.String()
	for _, want := range []string{
		"vdcpower_breaker_state 0",
		"vdcpower_breaker_cooldown_ticks 0",
		"vdcpower_breaker_transitions_total 0",
		"vdcpower_slo_burn_fast",
		"vdcpower_slo_burn_slow",
		"vdcpower_slo_budget_remaining",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}
