package check

import (
	"strings"
	"testing"
)

func guardEvent(g GuardObservation) Event {
	return Event{Kind: EvGuard, Step: 1, Guard: g}
}

func TestGuardLawCleanObservations(t *testing.T) {
	ck := New(GuardInvariants()...)
	for _, g := range []GuardObservation{
		{},                            // unbudgeted drain
		{MaxEvents: 100, Events: 100}, // at the bound, final event — no trip required
		{MaxEvents: 100, Events: 42},  // under budget
		{MaxEvents: 100, Events: 101, Tripped: true, Aborted: true}, // honest trip
		{MaxSameTime: 10, SameTime: 11, Tripped: true, Aborted: true},
		{MaxEvents: 100, Events: 50, Tripped: true, Aborted: true}, // wall-clock trip under the event bound
	} {
		ck.Observe(guardEvent(g))
	}
	// Non-guard events and empty Guard payloads are clean.
	ck.Observe(Event{Kind: EvStep, Step: 2})
	ck.Observe(Event{Kind: EvGuard, Step: 3})
	if err := ck.Err(); err != nil {
		t.Fatalf("clean observations flagged: %v", err)
	}
}

func TestGuardLawViolations(t *testing.T) {
	cases := []struct {
		name string
		g    GuardObservation
		want string
	}{
		{"negative accounting", GuardObservation{Events: -1}, "negative"},
		{"silent event overrun", GuardObservation{MaxEvents: 10, Events: 11}, "without tripping"},
		{"silent same-time overrun", GuardObservation{MaxSameTime: 5, SameTime: 6}, "without tripping"},
		{"swallowed trip", GuardObservation{MaxEvents: 10, Events: 11, Tripped: true}, "not converted"},
		{"fabricated abort", GuardObservation{Aborted: true}, "without a budget trip"},
	}
	for _, tc := range cases {
		ck := New(GuardInvariants()...)
		ck.Observe(guardEvent(tc.g))
		vs := ck.Violations()
		if len(vs) != 1 {
			t.Fatalf("%s: %d violations, want 1", tc.name, len(vs))
		}
		if vs[0].Invariant != "guard/step-budget-bounded" {
			t.Fatalf("%s: law = %q", tc.name, vs[0].Invariant)
		}
		if !strings.Contains(vs[0].Detail, tc.want) {
			t.Fatalf("%s: %q does not mention %q", tc.name, vs[0].Detail, tc.want)
		}
	}
}

func TestAllIncludesGuardLaw(t *testing.T) {
	for _, inv := range All() {
		if inv.Name() == "guard/step-budget-bounded" {
			return
		}
	}
	t.Fatal("All() lacks guard/step-budget-bounded")
}
