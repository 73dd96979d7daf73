package obs_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/guard"
	"vdcpower/internal/mpc"
	"vdcpower/internal/obs"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/power"
	"vdcpower/internal/probe"
)

// A scorecard subscribes to a probe as it stands.
var _ probe.Subscriber = (*obs.Scorecard)(nil)

// The subscriber audits every breaker transition, and a quarantine entry
// or exit from the facts' flag before that fact's own breaker record.
func TestScorecardAuditsBreakerTransitions(t *testing.T) {
	sc := obs.New(obs.Config{})
	p := probe.New(sc)
	for i, b := range []check.BreakerObservation{
		{State: guard.Closed, Prev: guard.Closed},
		{State: guard.Open, Prev: guard.Closed, Cooldown: 10, ConsecFails: 5},
		{State: guard.Open, Prev: guard.Open, Cooldown: 9},
		{State: guard.HalfOpen, Prev: guard.Open},
		{State: guard.Open, Prev: guard.HalfOpen, Cooldown: 10},
		{State: guard.HalfOpen, Prev: guard.Open},
		{State: guard.Open, Prev: guard.HalfOpen, Cooldown: 60, ConsecFails: 7, Quarantined: true},
		{State: guard.Open, Prev: guard.Open, Cooldown: 59, ConsecFails: 7, Quarantined: true},
		{State: guard.HalfOpen, Prev: guard.Open, ConsecFails: 7, Quarantined: true},
		{State: guard.Closed, Prev: guard.HalfOpen},
	} {
		p.Emit(check.Event{Kind: check.EvBreaker, Step: i, Span: "serve.step", Breaker: b})
	}
	var got []string
	for _, d := range sc.Audit().Records() {
		got = append(got, fmt.Sprintf("%d %s: %s (%g)", d.Step, d.Action, d.Reason, d.Value))
	}
	want := []string{
		"1 breaker-open: consecutive step failures reached the threshold (5)",
		"3 breaker-half-open: cooldown expired: probing with one real step (0)",
		"4 breaker-open: probe step failed: cooldown re-armed (0)",
		"5 breaker-half-open: cooldown expired: probing with one real step (0)",
		"6 quarantine-enter: repeated step-budget exhaustion (1)",
		"6 breaker-open: probe step failed: cooldown re-armed (7)",
		"8 breaker-half-open: cooldown expired: probing with one real step (7)",
		"9 quarantine-exit: successful step while quarantined (0)",
		"9 breaker-close: probe step succeeded (0)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("audit = %q, want %q", got, want)
	}
	rep := sc.Report()
	if b := rep.Breaker; b.State != "closed" || b.Transitions != 7 || b.CooldownTicks != 0 {
		t.Fatalf("breaker slice = %+v", b)
	}
	if rep.Guard.Quarantines != 1 {
		t.Fatalf("quarantines = %d, want 1", rep.Guard.Quarantines)
	}
}

// TestScorecardFoldsEveryFact drives one of each fact through the
// scorecard subscriber and checks where each one lands in the report.
func TestScorecardFoldsEveryFact(t *testing.T) {
	a, b := cluster.NewServer("a", power.TypeHighEnd()), cluster.NewServer("b", power.TypeHighEnd())
	dc, err := cluster.NewDataCenter([]*cluster.Server{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.Place(&cluster.VM{ID: "v", Demand: 1, MemoryGB: 1}, a); err != nil {
		t.Fatal(err)
	}
	sc := obs.New(obs.Config{SLOTargetSec: 1})
	p := probe.New(sc)
	p.Emit(check.Event{Kind: check.EvInit, Apps: []string{"App1"}, SetpointSec: 1})
	p.Emit(check.Event{Kind: check.EvGuard, Guard: check.GuardObservation{Events: 7, SameTime: 2}})
	for _, c := range []check.ControlObservation{
		{App: "App1", T90: 0.5, Residual: -0.25, HasResidual: true},
		{App: "App1", T90: 2, Held: true, Dropped: true, HeldStreak: 5, OpenLoop: true},
		{App: "App1", T90: 1.5},
	} {
		p.Emit(check.Event{Kind: check.EvControl, Control: c})
	}
	// A fact without a data center, or with a snapshot that does not
	// match it, audits nothing.
	agg := &optimizer.Report{Migrations: 3, Vetoed: 1, ActiveBefore: 2, ActiveAfter: 1}
	p.Emit(check.Event{Kind: check.EvConsolidate, Policy: "IPAC", Span: "optimizer", Report: agg, Nodes: 9, Widenings: 1,
		ActiveBefore: []bool{true, true}})
	before := []bool{true, true}
	dc.SleepIdle()
	p.Emit(check.Event{Kind: check.EvConsolidate, Policy: "IPAC", Span: "optimizer", DC: dc,
		Report: &optimizer.Report{}, ActiveBefore: before[:1]})
	p.Emit(check.Event{Kind: check.EvWatchdog, Policy: "watchdog", Span: "dcsim.watchdog", DC: dc,
		Report: &optimizer.Report{Migrations: 1}, ActiveBefore: before, Degraded: true})
	p.Emit(check.Event{Kind: check.EvCrash, LostVMs: []string{"v"}, Crash: check.CrashObservation{Server: "a", Lose: true}})
	p.Emit(check.Event{Kind: check.EvStep, PowerW: 300, HasPower: true, SLOMet: true, HasSLO: true,
		Solve: mpc.SolveStats{Solves: 4, WarmAttempts: 3, ColdRetries: 1}})
	p.Emit(check.Event{Kind: check.EvGuard, Span: "testbed.period", Guard: check.GuardObservation{
		MaxEvents: 1, Events: 1, Tripped: true, Aborted: true, Wall: true, Err: errors.New("budget")}})

	rep := sc.Report()
	if rep.Steps != 1 || rep.Power == nil || rep.Power.Count != 1 || rep.SLO.Good+rep.SLO.Bad != 3 {
		t.Errorf("steps/power/SLO = %d/%+v/%+v", rep.Steps, rep.Power, rep.SLO)
	}
	if rep.MPC.Solves != 4 || rep.MPC.ColdRetries != 1 || rep.MPC.Residual.Count != 1 {
		t.Errorf("mpc slice = %+v", rep.MPC)
	}
	if c := rep.Control; c.Periods != 3 || c.Held != 1 || c.Dropped != 1 || c.OpenLoop != 1 || c.MaxHeldStreak != 5 {
		t.Errorf("control slice = %+v", c)
	}
	if len(rep.Apps) != 1 || rep.Apps[0].Samples != 2 || rep.Apps[0].Violations != 1 {
		t.Errorf("apps = %+v", rep.Apps)
	}
	if o := rep.Optimizer; o.Passes != 2 || o.Migrations != 4 || o.Vetoes != 1 || o.WatchdogPasses != 1 ||
		o.DegradedPasses != 1 || o.BnBNodes != 9 || o.Widenings != 1 {
		t.Errorf("optimizer slice = %+v", o)
	}
	if c := rep.Cluster; c.Crashes != 1 || c.VMsLost != 1 || c.VMsEvacuated != 0 {
		t.Errorf("cluster slice = %+v", c)
	}
	if g := rep.Guard; g.Drains != 2 || g.BudgetTrips != 1 || g.WallTrips != 1 || g.MaxDrainEvents != 7 {
		t.Errorf("guard slice = %+v", g)
	}
	var got []string
	for _, d := range rep.Audit.Records {
		got = append(got, d.Component+" "+d.Action+" "+d.Target+" "+d.Span)
	}
	want := []string{
		"controller open-loop App1 mpc-App1",
		"controller close-loop App1 mpc-App1",
		"watchdog server-off b dcsim.watchdog",
		"fault-plane server-crash a ",
		"guard step-abort testbed testbed.period",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("audit =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
