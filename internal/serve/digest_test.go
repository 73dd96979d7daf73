package serve

import (
	"bytes"
	"hash/fnv"
	"strings"
	"testing"

	"vdcpower/internal/fault"
	"vdcpower/internal/telemetry"
)

// TestObserverDigestsBreaker pins the scorecard, the exposition (without
// the wall-clock step-wall family) and the Chrome trace of a server whose
// injected step errors drive the breaker open, through a failed half-open
// probe, and closed again. The digests were recorded from the observer
// wiring that predates the single probe; rewiring the observers must not
// move them.
func TestObserverDigestsBreaker(t *testing.T) {
	prev := logf
	logf = func(string, ...any) {}
	defer func() { logf = prev }()
	s := testServer(t)
	s.AttachFaults(fault.New(fault.Profile{
		Seed:   3,
		Sensor: fault.SensorProfile{DropoutProb: 0.1},
		Serve:  fault.ServeProfile{ErrorProb: 1, UntilStep: 6},
	}))
	// The background loop's tick body, without the ticker.
	for tick := 0; tick < 40; tick++ {
		if !s.allowStep() {
			s.degraded.Inc()
			continue
		}
		s.recordStep(s.step())
	}
	rep := s.obs.Report()
	if rep.Breaker.State != "closed" || rep.Breaker.Transitions != 5 {
		t.Fatalf("breaker = %+v, want closed after 5 transitions", rep.Breaker)
	}

	var card, prom, trace bytes.Buffer
	if err := s.obs.WriteJSON(&card); err != nil {
		t.Fatal(err)
	}
	if err := s.metrics.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.SplitAfter(prom.String(), "\n") {
		if !strings.Contains(line, "vdcpower_step_wall_seconds") {
			kept = append(kept, line)
		}
	}
	if err := telemetry.WriteChromeTrace(&trace, s.tracer.Snapshot()); err != nil {
		t.Fatal(err)
	}
	digest := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	got := [3]uint64{digest(card.Bytes()), digest([]byte(strings.Join(kept, ""))), digest(trace.Bytes())}
	want := [3]uint64{0x6e9dac8a51a867f6, 0x659b94051d232db, 0x561fb9f3203d08ef}
	if got != want {
		t.Errorf("observer digests (scorecard, exposition, trace) = %#v, want %#v", got, want)
	}
}

// TestObserverDigestsQuarantine pins the same three observer outputs for
// the wedge run: injected budget exhaustion on the first 8 steps opens the
// breaker, a failed wedge-class probe engages quarantine, and the first
// clean probe after the stretched cooldown closes the breaker and lifts
// quarantine. The digests were recorded from the serve-side breaker and
// quarantine that predate guard.Breaker.
func TestObserverDigestsQuarantine(t *testing.T) {
	prev := logf
	logf = func(string, ...any) {}
	defer func() { logf = prev }()
	s := testServer(t)
	s.AttachFaults(fault.New(fault.Profile{Seed: 9, Guard: fault.GuardProfile{ExhaustProb: 1, UntilStep: 8}}))
	for tick := 0; tick < 300; tick++ {
		if !s.allowStep() {
			s.degraded.Inc()
			continue
		}
		s.recordStep(s.step())
	}
	rep := s.obs.Report()
	if rep.Guard.BudgetTrips != 8 || rep.Guard.Quarantines != 1 || rep.Breaker.Transitions != 9 || rep.Breaker.State != "closed" {
		t.Fatalf("guard = %+v, breaker = %+v, want 8 trips, 1 quarantine, closed after 9 transitions", rep.Guard, rep.Breaker)
	}
	want := [3]uint64{0x9dbcddf56300e491, 0x28c2c325ca07293a, 0x910bcf0e8481d0c}
	if got := observerDigests(t, s); got != want {
		t.Errorf("observer digests (scorecard, exposition, trace) = %#v, want %#v", got, want)
	}
}

// observerDigests hashes the scorecard, the exposition without the
// wall-clock step-wall family, and the Chrome trace, each with FNV-64a.
func observerDigests(t *testing.T, s *Server) [3]uint64 {
	t.Helper()
	var card, prom, trace bytes.Buffer
	if err := s.obs.WriteJSON(&card); err != nil {
		t.Fatal(err)
	}
	if err := s.metrics.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.SplitAfter(prom.String(), "\n") {
		if !strings.Contains(line, "vdcpower_step_wall_seconds") {
			kept = append(kept, line)
		}
	}
	if err := telemetry.WriteChromeTrace(&trace, s.tracer.Snapshot()); err != nil {
		t.Fatal(err)
	}
	digest := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	return [3]uint64{digest(card.Bytes()), digest([]byte(strings.Join(kept, ""))), digest(trace.Bytes())}
}
