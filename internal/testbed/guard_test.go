package testbed

import (
	"bytes"
	"errors"
	"testing"

	"vdcpower/internal/check"
	"vdcpower/internal/devs"
	"vdcpower/internal/fault"
	"vdcpower/internal/guard"
	"vdcpower/internal/obs"
	"vdcpower/internal/probe"
)

// A starvation-level budget must convert the period into a typed abort
// with the partial records preserved — never a hang, never a plain error.
func TestRunStepBudgetAbort(t *testing.T) {
	tb, err := New(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := obs.New(obs.Config{})
	ck := check.New(check.GuardInvariants()...)
	tb.AttachProbe(probe.New(ck, sc))

	recs, err := tb.Run(40, nil)
	if err != nil {
		t.Fatalf("unbudgeted run failed: %v", err)
	}
	healthy := len(recs)

	tb.SetStepBudget(devs.Budget{MaxEvents: 5})
	recs, err = tb.Run(40, nil)
	sa, ok := guard.AsStepAbort(err)
	if !ok {
		t.Fatalf("err = %v, want *guard.StepAbort", err)
	}
	if sa.Wall {
		t.Fatal("event-budget trip flagged as wall-clock")
	}
	if !errors.Is(err, devs.ErrBudgetExceeded) {
		t.Fatal("abort does not unwrap to the kernel sentinel")
	}
	if len(recs) != 0 {
		t.Fatalf("aborted on period 0 yet returned %d records", len(recs))
	}
	g := sc.Report().Guard
	if g.BudgetTrips != 1 || g.WallTrips != 0 {
		t.Fatalf("guard slice = %+v", g)
	}
	if g.Drains != uint64(healthy)+1 {
		t.Fatalf("Drains = %d, want %d healthy + 1 aborted", g.Drains, healthy)
	}
	// The abort is checker-visible and law-clean: tripped and aborted agree.
	if verr := ck.Err(); verr != nil {
		t.Fatalf("guard law violated: %v", verr)
	}
	// The audit ring carries the stuck-step record.
	found := false
	for _, d := range sc.Audit().Records() {
		if d.Component == "guard" && d.Action == "step-abort" {
			found = true
		}
	}
	if !found {
		t.Fatal("no guard/step-abort audit record")
	}

	// Removing the budget resumes normal operation on the same testbed.
	tb.SetStepBudget(devs.Budget{})
	if _, err := tb.Run(40, nil); err != nil {
		t.Fatalf("run after clearing the budget: %v", err)
	}
}

// Injected exhaustion travels the real kernel trip path and stops at
// until_step, so stepwise runs (serve's cadence) recover on schedule.
func TestRunInjectedBudgetExhaustionRecovers(t *testing.T) {
	cfg := quickConfig()
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := obs.New(obs.Config{})
	ck := check.New(check.GuardInvariants()...)
	tb.AttachProbe(probe.New(ck, sc))
	tb.AttachFaults(fault.New(fault.Profile{Seed: 3, Guard: fault.GuardProfile{ExhaustProb: 1, UntilStep: 2}}))

	aborts := 0
	for p := 0; p < 6; p++ {
		_, err := tb.Run(cfg.Period, nil) // one period per call, like serve
		if p < 2 {
			if !guard.IsStepAbort(err) {
				t.Fatalf("period %d: err = %v, want step abort", p, err)
			}
			aborts++
			continue
		}
		if err != nil {
			t.Fatalf("period %d after until_step: %v", p, err)
		}
	}
	if aborts != 2 {
		t.Fatalf("aborts = %d", aborts)
	}
	if g := sc.Report().Guard; g.BudgetTrips != 2 {
		t.Fatalf("BudgetTrips = %d, want 2", g.BudgetTrips)
	}
	if verr := ck.Err(); verr != nil {
		t.Fatalf("guard law violated under injection: %v", verr)
	}
}

// Acceptance: a generous budget that never trips must leave the run
// byte-identical to an unbudgeted one — records and scorecard alike.
func TestRunByteIdenticalUnderUntrippedBudget(t *testing.T) {
	runOnce := func(budget devs.Budget) ([]PeriodRecord, *bytes.Buffer) {
		tb, err := New(quickConfig())
		if err != nil {
			t.Fatal(err)
		}
		sc := obs.New(obs.Config{})
		tb.AttachProbe(probe.New(sc))
		tb.SetStepBudget(budget)
		recs, err := tb.Run(100, nil)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := sc.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return recs, &b
	}
	plainRecs, plainJSON := runOnce(devs.Budget{})
	budgetedRecs, budgetedJSON := runOnce(guard.DefaultStepBudget().DevsBudget(nil))
	if len(plainRecs) != len(budgetedRecs) {
		t.Fatalf("record counts differ: %d vs %d", len(plainRecs), len(budgetedRecs))
	}
	for i := range plainRecs {
		a, b := plainRecs[i], budgetedRecs[i]
		if a.Time != b.Time || a.PowerW != b.PowerW || a.Relaxed != b.Relaxed {
			t.Fatalf("record %d diverged: %+v vs %+v", i, a, b)
		}
		for j := range a.T90 {
			if a.T90[j] != b.T90[j] {
				t.Fatalf("record %d T90[%d] diverged", i, j)
			}
		}
	}
	if !bytes.Equal(plainJSON.Bytes(), budgetedJSON.Bytes()) {
		t.Fatal("scorecard JSON diverged under an untripped budget")
	}
}
