package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"vdcpower/internal/check"
	"vdcpower/internal/guard"
)

var errBudget = errors.New("step budget exhausted")

// drain is a bounded drain's fact; an aborted one trips its budget, on
// the wall-clock watchdog when wall is set.
func drain(events, sameTime int, aborted, wall bool) check.Event {
	g := check.GuardObservation{Events: events, SameTime: sameTime, Tripped: aborted, Aborted: aborted, Wall: wall}
	if aborted {
		g.Err = errBudget
	}
	return check.Event{Kind: check.EvGuard, Guard: g}
}

// quarantine is the breaker fact that enters quarantine.
var quarantine = check.Event{Kind: check.EvBreaker, Breaker: check.BreakerObservation{
	State: guard.Open, Prev: guard.HalfOpen, Cooldown: 60, Quarantined: true}}

func TestScorecardGuardReport(t *testing.T) {
	s := New(Config{})
	s.Observe(drain(100, 3, false, false))
	s.Observe(drain(250, 7, true, false))
	s.Observe(drain(40, 1, true, true))
	s.Observe(quarantine)
	g := s.Report().Guard
	if g.Drains != 3 {
		t.Fatalf("Drains = %d", g.Drains)
	}
	if g.MaxDrainEvents != 250 || g.MaxSameTime != 7 {
		t.Fatalf("max fold wrong: %+v", g)
	}
	if g.BudgetTrips != 2 || g.WallTrips != 1 {
		t.Fatalf("trips wrong: %+v", g)
	}
	if g.Quarantines != 1 {
		t.Fatalf("Quarantines = %d", g.Quarantines)
	}
}

func TestScorecardGuardJSONFields(t *testing.T) {
	s := New(Config{})
	s.Observe(drain(5, 2, false, false))
	var b bytes.Buffer
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"guard"`, `"drains"`, `"budget_trips"`, `"wall_trips"`, `"quarantines"`, `"max_drain_events"`, `"max_same_time"`} {
		if !strings.Contains(b.String(), key) {
			t.Fatalf("JSON lacks %s:\n%s", key, b.String())
		}
	}
}

func TestScorecardGuardMerge(t *testing.T) {
	a, b := New(Config{}), New(Config{})
	a.Observe(drain(10, 2, true, false))
	b.Observe(drain(90, 5, true, true))
	b.Observe(quarantine)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	g := a.Report().Guard
	if g.Drains != 2 || g.BudgetTrips != 2 || g.WallTrips != 1 || g.Quarantines != 1 {
		t.Fatalf("merged counts wrong: %+v", g)
	}
	if g.MaxDrainEvents != 90 || g.MaxSameTime != 5 {
		t.Fatalf("merged max fold wrong: %+v", g)
	}
}

func TestScorecardGuardNilSafe(t *testing.T) {
	var s *Scorecard
	s.Observe(drain(1, 1, true, true))
	s.Observe(quarantine)
}

// A drain fact arrives every control period, budget or no budget — it
// shares the zero-allocation discipline of the other steady-state facts,
// and so does a trip's audit record once the ring is allocated.
func TestScorecardGuardZeroAlloc(t *testing.T) {
	s := New(Config{})
	i := 0
	requireZeroAllocs(t, "Scorecard guard updates", func() {
		s.Observe(drain(100+i%50, i%9, i%17 == 0, i%2 == 0))
		i++
	})
}
