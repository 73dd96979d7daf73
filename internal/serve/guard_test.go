package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"vdcpower/internal/devs"
	"vdcpower/internal/fault"
	"vdcpower/internal/guard"
)

// Quarantine escalation, driven through the breaker state machine: two
// wedge-class openings since the last success engage it, the cooldown
// stretches, and one successful probe lifts it.
func TestQuarantineLifecycle(t *testing.T) {
	s := testServer(t)
	logs := captureLog(t)
	abort := &guard.StepAbort{Period: 7, Err: &devs.BudgetError{Reason: devs.ReasonMaxEvents}}
	b := &s.breaker

	for i := 0; i < guard.BreakerThreshold; i++ {
		s.recordStep(abort) // the last opens the breaker: wedge-class opening #1
	}
	if b.State() != guard.Open || b.Quarantined() {
		t.Fatalf("after threshold: state=%d quarantined=%v", b.State(), b.Quarantined())
	}
	if b.Cooldown() != guard.BreakerCooldown {
		t.Fatalf("first cooldown = %d, want the plain %d", b.Cooldown(), guard.BreakerCooldown)
	}
	// Burn the cooldown, then the half-open probe wedges again: opening #2
	// engages quarantine and the next cooldown is stretched sixfold.
	for i := 1; i < guard.BreakerCooldown; i++ {
		s.allowStep()
	}
	if !s.allowStep() {
		t.Fatal("probe was absorbed")
	}
	s.recordStep(abort)
	if !b.Quarantined() {
		t.Fatal("second wedge-class opening did not quarantine")
	}
	if b.Cooldown() != guard.BreakerCooldown*guard.QuarantineFactor {
		t.Fatalf("quarantined cooldown = %d, want %d", b.Cooldown(), guard.BreakerCooldown*guard.QuarantineFactor)
	}
	h, code := healthDoc(t, s)
	if code != http.StatusServiceUnavailable || !h.Quarantined {
		t.Fatalf("quarantined /health = %d %+v", code, h)
	}
	if s.obs.Report().Guard.Quarantines != 1 {
		t.Fatalf("Quarantines = %d", s.obs.Report().Guard.Quarantines)
	}
	// A successful step lifts quarantine and restores the normal cadence.
	s.recordStep(nil)
	if b.Quarantined() || b.State() != guard.Closed {
		t.Fatalf("recovery left quarantined=%v state=%d", b.Quarantined(), b.State())
	}
	h, code = healthDoc(t, s)
	if code != http.StatusOK || h.Quarantined {
		t.Fatalf("recovered /health = %d %+v", code, h)
	}
	var entered, lifted bool
	for _, m := range logs() {
		if strings.Contains(m, "quarantined after repeated budget exhaustion") {
			entered = true
		}
		if strings.Contains(m, "quarantine lifted") {
			lifted = true
		}
	}
	if !entered || !lifted {
		t.Fatalf("quarantine transitions not logged: entered=%v lifted=%v\n%v", entered, lifted, logs())
	}
	// A non-wedge failure streak opens the breaker without quarantining.
	boom := &brokenStep{}
	for i := 0; i < guard.BreakerThreshold; i++ {
		s.recordStep(boom)
	}
	if b.Quarantined() {
		t.Fatal("plain failures engaged quarantine")
	}
}

type brokenStep struct{}

func (*brokenStep) Error() string { return "plain step failure" }

// /health and /status must answer while a step holds the server mutex —
// the exact failure mode of the pre-guard wedge, where a spinning step
// blocked every HTTP handler forever.
func TestHealthAnswersWhileStepHoldsMutex(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	s.mu.Lock() // a step in flight
	defer s.mu.Unlock()
	done := make(chan int, 2)
	for _, path := range []string{"/health", "/status"} {
		path := path
		go func() { done <- get(t, h, path).Code }()
	}
	for i := 0; i < 2; i++ {
		select {
		case code := <-done:
			if code != http.StatusOK {
				t.Fatalf("lock-free endpoint returned %d", code)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("/health or /status blocked on the step mutex")
		}
	}
}

// The end-to-end wedge shape of DESIGN §14 — loosened setpoints
// under a fast tick — now completes with the breaker opening on
// injected budget exhaustion and recovering once it stops. Runs under
// -race in CI.
func TestWedgeEndToEndBreakerOpensAndRecovers(t *testing.T) {
	s := testServer(t)
	captureLog(t)
	s.SetGuard(guard.StepBudget{MaxEvents: 500_000, MaxSameTimeEvents: 50_000, Wall: 5 * time.Second})
	// Exhaustion fires on every period until step 6: enough to open the
	// breaker (threshold 5), fail its first probe and engage quarantine,
	// then recover on the probe after the stretched cooldown.
	s.AttachFaults(fault.New(fault.Profile{Seed: 9, Guard: fault.GuardProfile{ExhaustProb: 1, UntilStep: 6}}))
	h := s.Handler()

	// The item-6 storm shape: loosen every setpoint before starting.
	for i := range s.tb.Apps {
		rr := post(t, h, "/setpoint?app="+string(rune('0'+i))+"&seconds=1.2")
		if rr.Code != http.StatusOK {
			t.Fatalf("setpoint: %d %s", rr.Code, rr.Body.String())
		}
	}

	s.Start(2 * time.Millisecond)
	defer s.Stop()

	poll := func(ok func(int, Health) bool, desc string) Health {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			start := time.Now()
			rr := get(t, h, "/health")
			if lat := time.Since(start); lat > time.Second {
				t.Fatalf("/health took %v during %s", lat, desc)
			}
			var doc Health
			if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			if ok(rr.Code, doc) {
				return doc
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("never reached %s", desc)
		return Health{}
	}

	degraded := poll(func(code int, doc Health) bool {
		return code == http.StatusServiceUnavailable && doc.BreakerOpen
	}, "degraded (breaker open on budget exhaustion)")
	if !strings.Contains(degraded.LastError, "budget") {
		t.Fatalf("degraded LastError = %q, want a budget abort", degraded.LastError)
	}
	recovered := poll(func(code int, doc Health) bool {
		return code == http.StatusOK
	}, "recovered (injection stopped at until_step)")
	if recovered.BreakerOpen || recovered.Quarantined {
		t.Fatalf("recovered health still degraded: %+v", recovered)
	}
	s.Stop()

	var doc ScorecardDoc
	if err := json.Unmarshal(get(t, h, "/scorecard").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Guard.BudgetTrips == 0 {
		t.Fatalf("scorecard records no budget trips: %+v", doc.Guard)
	}
	if doc.Breaker.Transitions == 0 {
		t.Fatalf("scorecard records no breaker transitions: %+v", doc.Breaker)
	}
	if doc.Guard.Drains == 0 || doc.Guard.MaxDrainEvents == 0 {
		t.Fatalf("scorecard drain accounting empty: %+v", doc.Guard)
	}
}

// The real (uninjected) item-6 repro: loosened setpoints and many fast
// periods. Pre-fix this spun forever inside PSQueue.complete; post-fix
// the Zeno guard retires the sub-resolution work and every step stays
// within the default budget.
func TestSetpointStormCompletesBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("hundreds of control periods")
	}
	s := testServer(t)
	h := s.Handler()
	for i := range s.tb.Apps {
		rr := post(t, h, "/setpoint?app="+string(rune('0'+i))+"&seconds=1.2")
		if rr.Code != http.StatusOK {
			t.Fatalf("setpoint: %d", rr.Code)
		}
	}
	for k := 0; k < 300; k++ {
		if err := s.Step(); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
	}
	if g := s.obs.Report().Guard; g.BudgetTrips != 0 {
		t.Fatalf("healthy storm tripped %d budgets", g.BudgetTrips)
	}
}

// A Stop/Start restart must leave the breaker's published state in
// agreement: /health, the metrics gauges and the scorecard report the
// same breaker, before the restart, after it, and after a further failed
// step. The open breaker keeps cooling down across the restart.
func TestRestartKeepsBreakerStateConsistent(t *testing.T) {
	s := testServer(t)
	captureLog(t)
	h := s.Handler()
	agree := func(when string) {
		t.Helper()
		doc, _ := healthDoc(t, s)
		gauges := map[string]string{}
		for _, line := range strings.Split(get(t, h, "/metrics").Body.String(), "\n") {
			if f := strings.Fields(line); len(f) == 2 {
				gauges[f[0]] = f[1]
			}
		}
		var sc ScorecardDoc
		if err := json.Unmarshal(get(t, h, "/scorecard").Body.Bytes(), &sc); err != nil {
			t.Fatal(err)
		}
		wantGauge, wantState := "0", "closed"
		if doc.BreakerOpen {
			wantGauge, wantState = "1", "open"
		}
		if gauges["vdcpower_breaker_state"] != wantGauge || sc.Breaker.State != wantState {
			t.Fatalf("%s: /health breaker_open=%v, gauge %s, scorecard %q", when,
				doc.BreakerOpen, gauges["vdcpower_breaker_state"], sc.Breaker.State)
		}
		if cd := gauges["vdcpower_breaker_cooldown_ticks"]; cd != strconv.Itoa(sc.Breaker.CooldownTicks) {
			t.Fatalf("%s: cooldown gauge %s, scorecard %d", when, cd, sc.Breaker.CooldownTicks)
		}
	}
	for i := 0; i < guard.BreakerThreshold; i++ {
		s.recordStep(&brokenStep{})
	}
	agree("after opening")
	s.Start(time.Hour)
	s.Stop()
	agree("after a restart")
	if doc, code := healthDoc(t, s); code != http.StatusServiceUnavailable || !doc.BreakerOpen {
		t.Fatalf("restart closed the open breaker: /health %d %+v", code, doc)
	}
	s.recordStep(&brokenStep{})
	agree("after a further failed step")
}
