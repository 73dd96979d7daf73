package probe

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/fault"
	"vdcpower/internal/guard"
	"vdcpower/internal/mpc"
	"vdcpower/internal/obs"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/packing"
	"vdcpower/internal/power"
	"vdcpower/internal/race"
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
// in the exposition, the same in every harness: an init fact resolves
// nothing, a first drain resolves the whole period group, and the first
// pass resolves the pass group, degraded passes included.
func TestMetricsResolveGroupsOnFirstFact(t *testing.T) {
	for _, apps := range [][]string{{"App1", "App2"}, nil} {
		reg := telemetry.NewRegistry()
		p := New(Metrics(reg))
		p.Emit(check.Event{Kind: check.EvInit, Apps: apps})
		if got := prom(t, reg); got != "" {
			t.Fatalf("init fact with apps %q published:\n%s", apps, got)
		}
		rep := &optimizer.Report{Migrations: 2}
		p.Emit(check.Event{Kind: check.EvWatchdog, Policy: "watchdog", Report: rep, Degraded: true})
		got := prom(t, reg)
		for _, want := range []string{
			"vdcpower_migrations_total 2", "vdcpower_migration_vetoes_total 0", "vdcpower_bnb_nodes_total 0",
			"vdcpower_watchdog_passes_total 1", "vdcpower_degraded_passes_total 1",
		} {
			if !strings.Contains(got, want) {
				t.Errorf("apps %q: after a degraded first pass the exposition lacks %q:\n%s", apps, want, got)
			}
		}
		if strings.Contains(got, "vdcpower_degraded_steps_total") || strings.Contains(got, "vdcpower_power_watts") {
			t.Errorf("apps %q: a pass published a family it does not bear on:\n%s", apps, got)
		}
		p.Emit(check.Event{Kind: check.EvConsolidate, Policy: "IPAC", Report: rep, Nodes: 5})
		if got := prom(t, reg); !strings.Contains(got, `vdcpower_optimizer_passes_total{policy="IPAC"} 1`) ||
			!strings.Contains(got, "vdcpower_degraded_passes_total 1") || !strings.Contains(got, "vdcpower_bnb_nodes_total 5") {
			t.Errorf("apps %q: a clean consolidation pass miscounted:\n%s", apps, got)
		}
	}

	reg := telemetry.NewRegistry()
	p := New(Metrics(reg))
	p.Emit(check.Event{Kind: check.EvInit, Apps: []string{"App1", "App2"}})
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
	if strings.Contains(got, "vdcpower_migrations_total") {
		t.Errorf("a drain published the pass group:\n%s", got)
	}
}

// The subscriber audits every breaker transition, and a quarantine entry
// or exit from the facts' flag before that fact's own breaker record.
func TestScorecardAuditsBreakerTransitions(t *testing.T) {
	sc := obs.New(obs.Config{})
	p := New(Scorecard(sc))
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

// factLog renders every pass fact it observes, copying what it needs
// during delivery.
type factLog []string

func (l *factLog) Observe(ev check.Event) {
	*l = append(*l, fmt.Sprintf("%s %s step=%d span=%s degraded=%t overloaded=%d before=%v migrations=%d nodes=%d widenings=%d",
		ev.Kind, ev.Policy, ev.Step, ev.Span, ev.Degraded, ev.OverloadedBefore, ev.ActiveBefore, ev.Report.Migrations, ev.Nodes, ev.Widenings))
}

// searcher is a consolidator whose search effort the test advances.
type searcher struct {
	optimizer.Consolidator
	st packing.SearchStats
}

func (s *searcher) SearchStats() *packing.SearchStats { return &s.st }

// TestPassReportsEachPassOnce drives the pass driver through its three
// outcomes: a clean pass and an injected failure each emit one fact with
// the servers overloaded and active before the pass and the search
// effort spent in it; a real failure emits nothing and returns its error.
func TestPassReportsEachPassOnce(t *testing.T) {
	a, b := cluster.NewServer("a", power.TypeHighEnd()), cluster.NewServer("b", power.TypeHighEnd())
	dc, err := cluster.NewDataCenter([]*cluster.Server{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.Place(&cluster.VM{ID: "v", Demand: 1e3, MemoryGB: 1}, a); err != nil {
		t.Fatal(err)
	}
	dc.SleepIdle()
	cons := &searcher{Consolidator: optimizer.NewIPAC()}
	injected := fault.New(fault.Profile{Optimizer: fault.OptimizerProfile{ErrorProb: 1}}).OptimizerError("IPAC")
	failure := errors.New("real failure")
	var runErr error
	run := func() (optimizer.Report, error) {
		cons.st.Nodes += 3
		cons.st.Widenings++
		return optimizer.Report{Migrations: 2}, runErr
	}
	pass := Pass{Kind: check.EvConsolidate, Step: 7, TimeSec: 28, Span: "optimizer", Policy: "IPAC"}

	var log factLog
	p := New(&log)
	for _, c := range []struct {
		err          error
		degraded     bool
		wantErr      error
		factsEmitted int
	}{{nil, false, nil, 1}, {injected, true, nil, 1}, {failure, false, failure, 0}} {
		runErr = c.err
		n := len(log)
		rep, degraded, err := p.Pass(dc, pass, cons, run)
		if rep.Migrations != 2 || degraded != c.degraded || err != c.wantErr || len(log)-n != c.factsEmitted {
			t.Errorf("run error %v: report %+v, degraded %t, error %v, %d facts", c.err, rep, degraded, err, len(log)-n)
		}
	}
	want := []string{
		"consolidate IPAC step=7 span=optimizer degraded=false overloaded=1 before=[true false] migrations=2 nodes=3 widenings=1",
		"consolidate IPAC step=7 span=optimizer degraded=true overloaded=1 before=[true false] migrations=2 nodes=3 widenings=1",
	}
	if strings.Join(log, "\n") != strings.Join(want, "\n") {
		t.Fatalf("facts =\n%s\nwant\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}

	// A watchdog pass names no consolidator and counts no search.
	runErr = nil
	if _, _, err := p.Pass(dc, Pass{Kind: check.EvWatchdog, Policy: "watchdog"}, nil, run); err != nil {
		t.Fatal(err)
	}
	if got := log[len(log)-1]; !strings.HasSuffix(got, "nodes=0 widenings=0") {
		t.Fatalf("watchdog fact %q counts a search", got)
	}

	// Unobserved, the pass still runs and still degrades on an injected
	// error, and the driver itself allocates nothing.
	var none *Probe
	runErr = injected
	if _, degraded, err := none.Pass(dc, pass, cons, run); !degraded || err != nil {
		t.Fatalf("unobserved injected pass: degraded %t, error %v", degraded, err)
	}
	runErr = nil
	nodes := cons.st.Nodes
	if race.Enabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { none.Pass(dc, pass, cons, run) }); n != 0 {
		t.Fatalf("an unobserved pass allocates %v times", n)
	}
	if cons.st.Nodes == nodes {
		t.Fatal("an unobserved pass did not run")
	}
}
