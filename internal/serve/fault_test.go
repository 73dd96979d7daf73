package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"vdcpower/internal/fault"
	"vdcpower/internal/guard"
)

// healthDoc fetches and decodes /health.
func healthDoc(t *testing.T, s *Server) (Health, int) {
	t.Helper()
	rr := get(t, s.Handler(), "/health")
	var h Health
	if err := json.Unmarshal(rr.Body.Bytes(), &h); err != nil {
		t.Fatalf("decoding /health: %v (%s)", err, rr.Body.String())
	}
	return h, rr.Code
}

func TestHealthStartsOK(t *testing.T) {
	s := testServer(t)
	h, code := healthDoc(t, s)
	if code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("fresh /health = %d %q, want 200 ok", code, h.Status)
	}
	if h.Steps != 0 || h.FaultsInjected != 0 {
		t.Fatalf("fresh health counts nonzero: %+v", h)
	}
}

// TestInjectedStepErrorsDegradeAndRecover drives the injected-fault path
// end to end, synchronously: with error_prob 1 until step 3, the first
// three steps fail typed, /health reports degraded with the injection
// count, and the loop recovers to 200 ok once injection stops.
func TestInjectedStepErrorsDegradeAndRecover(t *testing.T) {
	s := testServer(t)
	inj := fault.New(fault.Profile{
		Seed:  7,
		Serve: fault.ServeProfile{ErrorProb: 1, UntilStep: 3},
	})
	s.AttachFaults(inj)
	for k := 0; k < 3; k++ {
		err := s.Step()
		if !fault.IsInjected(err) {
			t.Fatalf("step %d: err = %v, want injected fault", k, err)
		}
		s.recordStep(err)
	}
	h, code := healthDoc(t, s)
	if code != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Fatalf("faulted /health = %d %q, want 503 degraded", code, h.Status)
	}
	if h.ConsecutiveFailures != 3 || h.FaultsInjected != 3 || h.Steps != 3 {
		t.Fatalf("health counters %+v, want 3 failures / 3 injected / 3 steps", h)
	}
	if !strings.Contains(h.LastError, "injected") {
		t.Fatalf("health.LastError = %q does not identify the injection", h.LastError)
	}
	// Injection stops at step 3: the next real step succeeds and clears
	// the degraded state.
	if err := s.Step(); err != nil {
		t.Fatalf("post-injection step failed: %v", err)
	}
	s.recordStep(nil)
	h, code = healthDoc(t, s)
	if code != http.StatusOK || h.Status != "ok" || h.ConsecutiveFailures != 0 {
		t.Fatalf("recovered /health = %d %+v, want 200 ok", code, h)
	}
	if h.LastError != "" {
		t.Fatalf("recovered health still carries %q", h.LastError)
	}
}

// TestCircuitBreakerLifecycle drives the breaker state machine directly:
// threshold failures open it, cooldown ticks absorb steps, the half-open
// probe closes it on success or re-arms the cooldown on failure.
func TestCircuitBreakerLifecycle(t *testing.T) {
	s := testServer(t)
	boom := errors.New("boom")
	logs := captureLog(t)
	open := func() bool { return s.breaker.State() != guard.Closed }

	for i := 1; i < guard.BreakerThreshold; i++ {
		s.recordStep(boom)
	}
	if open() {
		t.Fatal("breaker opened below threshold")
	}
	s.recordStep(boom)
	if !open() {
		t.Fatal("breaker did not open at the threshold")
	}
	h, code := healthDoc(t, s)
	if code != http.StatusServiceUnavailable || !h.BreakerOpen {
		t.Fatalf("open-breaker /health = %d %+v", code, h)
	}
	// Cooldown: absorbed ticks, then the half-open probe runs.
	for i := 1; i < guard.BreakerCooldown; i++ {
		if s.allowStep() {
			t.Fatalf("tick %d of cooldown ran a step", i)
		}
	}
	if !s.allowStep() {
		t.Fatal("half-open probe was absorbed")
	}
	// Probe fails: cooldown re-arms.
	s.recordStep(boom)
	if !open() || s.breaker.Cooldown() != guard.BreakerCooldown {
		t.Fatalf("failed probe left breaker=%v cooldown=%d", open(), s.breaker.Cooldown())
	}
	for i := 1; i < guard.BreakerCooldown; i++ {
		if s.allowStep() {
			t.Fatalf("re-armed cooldown tick %d ran a step", i)
		}
	}
	if !s.allowStep() {
		t.Fatal("second probe was absorbed")
	}
	// Probe succeeds: breaker closes, error clears.
	s.recordStep(nil)
	if open() || s.LastErr() != nil {
		t.Fatalf("successful probe left breaker=%v err=%v", open(), s.LastErr())
	}
	_, code = healthDoc(t, s)
	if code != http.StatusOK {
		t.Fatalf("closed-breaker /health = %d, want 200", code)
	}
	var opened, reopened, closed bool
	for _, m := range logs() {
		switch {
		case strings.Contains(m, "breaker opened"):
			opened = true
		case strings.Contains(m, "re-opening"):
			reopened = true
		case strings.Contains(m, "breaker closed"):
			closed = true
		}
	}
	if !opened || !reopened || !closed {
		t.Fatalf("breaker transitions not all logged: opened=%v reopened=%v closed=%v\n%v",
			opened, reopened, closed, logs())
	}
}

// TestMetricsCountDegradedSteps checks the degraded-steps counter family
// reaches the exposition endpoint.
func TestMetricsCountDegradedSteps(t *testing.T) {
	s := testServer(t)
	s.recordStep(errors.New("boom"))
	rr := get(t, s.Handler(), "/metrics")
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "vdcpower_degraded_steps_total 1") {
		t.Fatalf("degraded counter missing from exposition:\n%s", rr.Body.String())
	}
}
