package probe

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/mpc"
	"vdcpower/internal/obs"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/power"
	"vdcpower/internal/telemetry"
)

func TestNewDropsNilSubscribers(t *testing.T) {
	if p := New(); p != nil {
		t.Fatal("a probe with no subscribers is not nil")
	}
	if p := New(Scorecard(nil), Metrics(nil)); p != nil {
		t.Fatal("a probe over nil observers is not nil")
	}
	var p *Probe
	p.Emit(check.Event{Kind: check.EvStep}) // must not panic
	if err := p.Err(); err != nil {
		t.Fatalf("nil probe verdict = %v", err)
	}
}

// failing is an invariant that rejects every step event.
type failing struct{}

func (failing) Name() string { return "test/failing" }

func (failing) Check(ev check.Event) error {
	if ev.Kind == check.EvStep {
		return errors.New("rejected")
	}
	return nil
}

func TestErrIsTheCheckerVerdict(t *testing.T) {
	ck := check.New(failing{})
	p := New(Scorecard(obs.New(obs.Config{})), ck)
	p.Emit(check.Event{Kind: check.EvInit})
	if err := p.Err(); err != nil {
		t.Fatalf("verdict before any violation = %v", err)
	}
	p.Emit(check.Event{Kind: check.EvStep})
	if err := p.Err(); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("verdict = %v, want the checker's violation", err)
	}
}

func prom(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestMetricsResolveGroupsOnFirstFact pins when each family group appears
// in the exposition: a testbed's init fact resolves nothing, its first
// drain resolves the whole period group, and a fleet run's init fact
// resolves its consolidation families at zero.
func TestMetricsResolveGroupsOnFirstFact(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(Metrics(reg))
	p.Emit(check.Event{Kind: check.EvInit, Apps: []string{"App1", "App2"}})
	if got := prom(t, reg); got != "" {
		t.Fatalf("init fact published:\n%s", got)
	}
	p.Emit(check.Event{Kind: check.EvGuard, Guard: check.GuardObservation{Aborted: true, Tripped: true}})
	got := prom(t, reg)
	for _, want := range []string{
		"vdcpower_control_periods_total 0", "vdcpower_terminal_relaxations_total 0",
		"vdcpower_power_watts 0", `vdcpower_t90_seconds_count{app="App2"} 0`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("after an aborted first drain the exposition lacks %q:\n%s", want, got)
		}
	}
	rep := &optimizer.Report{Migrations: 2}
	p.Emit(check.Event{Kind: check.EvConsolidate, Policy: "IPAC", Report: rep, Degraded: true})
	if got := prom(t, reg); strings.Contains(got, "vdcpower_degraded_steps_total") ||
		!strings.Contains(got, "vdcpower_migrations_total 2") {
		t.Fatalf("a testbed pass must count migrations but no degraded step:\n%s", got)
	}

	fleet := telemetry.NewRegistry()
	q := New(Metrics(fleet))
	q.Emit(check.Event{Kind: check.EvInit})
	got = prom(t, fleet)
	for _, want := range []string{
		"vdcpower_migrations_total 0", "vdcpower_watchdog_passes_total 0",
		"vdcpower_degraded_steps_total 0", "vdcpower_active_servers 0",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("a fleet run's init fact did not export %q:\n%s", want, got)
		}
	}
	q.Emit(check.Event{Kind: check.EvWatchdog, Policy: "watchdog", Report: rep, Degraded: true})
	if got := prom(t, fleet); !strings.Contains(got, "vdcpower_degraded_steps_total 1") {
		t.Fatalf("a fleet run's skipped pass is not a degraded step:\n%s", got)
	}
}

func TestScorecardAuditsBreakerTransitions(t *testing.T) {
	sc := obs.New(obs.Config{})
	p := New(Scorecard(sc))
	for _, b := range []check.BreakerObservation{
		{State: obs.BreakerClosed, Prev: obs.BreakerClosed},
		{State: obs.BreakerOpen, Prev: obs.BreakerClosed, Cooldown: 10, ConsecFails: 5},
		{State: obs.BreakerOpen, Prev: obs.BreakerOpen, Cooldown: 9},
		{State: obs.BreakerHalfOpen, Prev: obs.BreakerOpen},
		{State: obs.BreakerOpen, Prev: obs.BreakerHalfOpen, Cooldown: 10},
	} {
		p.Emit(check.Event{Kind: check.EvBreaker, Span: "serve.step", Breaker: b})
	}
	var reasons []string
	for _, d := range sc.Audit().Records() {
		reasons = append(reasons, d.Action+": "+d.Reason)
	}
	want := []string{
		"breaker-open: consecutive step failures reached the threshold",
		"breaker-half-open: cooldown expired: probing with one real step",
		"breaker-open: probe step failed: cooldown re-armed",
	}
	if strings.Join(reasons, "\n") != strings.Join(want, "\n") {
		t.Fatalf("audit = %q, want %q", reasons, want)
	}
	if b := sc.Report().Breaker; b.State != "open" || b.Transitions != 3 || b.CooldownTicks != 10 {
		t.Fatalf("breaker slice = %+v", b)
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
	p := New(Scorecard(sc))
	p.Emit(check.Event{Kind: check.EvInit, Apps: []string{"App1"}, SetpointSec: 1})
	p.Emit(check.Event{Kind: check.EvGuard, Guard: check.GuardObservation{Events: 7, SameTime: 2}})
	for _, c := range []check.ControlObservation{
		{App: "App1", T90: 0.5, Residual: -0.25, HasResidual: true},
		{App: "App1", T90: 2, Held: true, Dropped: true, HeldStreak: 5, OpenLoop: true},
		{App: "App1", T90: 1.5},
	} {
		p.Emit(check.Event{Kind: check.EvControl, Control: c})
	}
	agg := &optimizer.Report{Migrations: 3, Vetoed: 1, ActiveBefore: 2, ActiveAfter: 1}
	p.Emit(check.Event{Kind: check.EvConsolidate, Policy: "IPAC", Span: "optimizer", Report: agg, Nodes: 9, Widenings: 1})
	before := []bool{true, true}
	dc.SleepIdle()
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
	if o := rep.Optimizer; o.Passes != 1 || o.Migrations != 4 || o.Vetoes != 1 || o.WatchdogPasses != 1 ||
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
		"IPAC servers-off  optimizer",
		"watchdog server-off b dcsim.watchdog",
		"fault-plane server-crash a ",
		"guard step-abort testbed testbed.period",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("audit =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
