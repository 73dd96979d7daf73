package obs

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"vdcpower/internal/check"
	"vdcpower/internal/guard"
	"vdcpower/internal/mpc"
	"vdcpower/internal/optimizer"
)

func TestSLOVerdicts(t *testing.T) {
	s := newSLO(0.1, 0.1, 4, 8)
	if s.Verdict() != VerdictNoData {
		t.Fatalf("empty verdict = %q", s.Verdict())
	}
	for i := 0; i < 20; i++ {
		s.Observe(true)
	}
	if s.Verdict() != VerdictMet {
		t.Fatalf("all-good verdict = %q", s.Verdict())
	}
	if s.BudgetRemaining() != 1 {
		t.Fatalf("budget remaining = %v, want 1", s.BudgetRemaining())
	}
	// Drive both windows into active burn without blowing the cumulative
	// budget: 2 bad of 22 total would violate (2/22 > 0.1), so widen the
	// denominator with more good first.
	for i := 0; i < 80; i++ {
		s.Observe(true)
	}
	s.Observe(false)
	s.Observe(false)
	// Cumulative: 2/102 < 0.1 budget. Fast window (4): 2/4 = 0.5 -> burn 5.
	// Slow window (8): 2/8 = 0.25 -> burn 2.5. Both >= 1 -> at-risk.
	if s.Verdict() != VerdictAtRisk {
		t.Fatalf("verdict = %q, want at-risk (fast %v slow %v)", s.Verdict(), s.BurnFast(), s.BurnSlow())
	}
	for i := 0; i < 30; i++ {
		s.Observe(false)
	}
	if s.Verdict() != VerdictViolated {
		t.Fatalf("verdict = %q, want violated", s.Verdict())
	}
	if s.BudgetRemaining() != 0 {
		t.Fatalf("budget remaining = %v, want 0", s.BudgetRemaining())
	}
}

func TestSLONilSafe(t *testing.T) {
	var s *SLO
	s.Observe(true)
	if s.Verdict() != VerdictNoData || s.BurnFast() != 0 || s.BurnSlow() != 0 || s.BudgetRemaining() != 0 {
		t.Fatal("nil SLO should answer zeros")
	}
}

func TestBurnWindowEviction(t *testing.T) {
	w := newBurnWindow(3)
	w.observe(false)
	w.observe(false)
	w.observe(true)
	if f := w.badFraction(); f != 2.0/3 {
		t.Fatalf("bad fraction = %v, want 2/3", f)
	}
	w.observe(true) // evicts the first bad
	w.observe(true) // evicts the second bad
	if f := w.badFraction(); f != 0 {
		t.Fatalf("bad fraction after eviction = %v, want 0", f)
	}
}

func TestSLOMergeMatchesUnion(t *testing.T) {
	a := newSLO(0, 0.1, 4, 8)
	b := newSLO(0, 0.1, 4, 8)
	for i := 0; i < 10; i++ {
		a.Observe(i%5 != 0)
		b.Observe(i%2 == 0)
	}
	a.merge(b)
	if a.good+a.bad != 20 {
		t.Fatalf("merged total = %d, want 20", a.good+a.bad)
	}
	// The merged windows carry the union of both final windows.
	wantFast := (a.fast.badN + 0) // receiver ring still live
	_ = wantFast
	rep := a.report()
	if rep.Good+rep.Bad != 20 {
		t.Fatalf("report totals wrong: %+v", rep)
	}
}

func TestAuditRingEviction(t *testing.T) {
	a := newAudit(3)
	for i := 0; i < 5; i++ {
		a.Record(Decision{Step: i, Component: "test", Action: "act", Reason: "r"})
	}
	if a.Len() != 3 || a.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3/2", a.Len(), a.Dropped())
	}
	recs := a.Records()
	for i, r := range recs {
		if r.Step != i+2 || r.Seq != uint64(i+2) {
			t.Fatalf("record %d = step %d seq %d, want step/seq %d", i, r.Step, r.Seq, i+2)
		}
	}
}

func TestAuditNilSafe(t *testing.T) {
	var a *Audit
	a.Record(Decision{})
	if a.Len() != 0 || a.Dropped() != 0 || a.Records() != nil {
		t.Fatal("nil audit should be inert")
	}
}

func TestScorecardNilSafe(t *testing.T) {
	var s *Scorecard
	for _, ev := range []check.Event{
		{Kind: check.EvInit, Apps: []string{"x"}, SetpointSec: 1},
		{Kind: check.EvStep, HasSLO: true, HasPower: true, PowerW: 100, Solve: mpc.SolveStats{Solves: 1}},
		{Kind: check.EvControl, Control: check.ControlObservation{App: "x", Held: true, HeldStreak: 1, Residual: 0.1, HasResidual: true}},
		{Kind: check.EvBreaker, Breaker: check.BreakerObservation{State: guard.Open, Cooldown: 5}},
		{Kind: check.EvConsolidate, Report: &optimizer.Report{Migrations: 1}, Nodes: 10, Widenings: 1},
		{Kind: check.EvWatchdog, Report: &optimizer.Report{Migrations: 1}},
		{Kind: check.EvCrash, Crash: check.CrashObservation{Server: "s", Evacuated: 2}},
		{Kind: check.EvGuard, Guard: check.GuardObservation{Events: 1, Aborted: true, Err: errors.New("budget")}},
	} {
		s.Observe(ev)
	}
	s.Audit().Record(Decision{})
	s.SLO().Observe(true)
	if err := s.Merge(New(Config{})); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.Schema != SchemaVersion {
		t.Fatalf("nil report schema = %q", rep.Schema)
	}
}

// initApps registers apps against one set point, as a harness's init fact
// does.
func initApps(s *Scorecard, setpointSec float64, apps ...string) {
	s.Observe(check.Event{Kind: check.EvInit, Step: -1, Apps: apps, SetpointSec: setpointSec})
}

// measure is app's control fact for one period that measured t90.
func measure(app int, t90 float64) check.Event {
	return check.Event{Kind: check.EvControl, Control: check.ControlObservation{Index: app, T90: t90}}
}

func buildScorecard(label string) *Scorecard {
	s := New(Config{Label: label, SLOTargetSec: 1.0, SLOBudget: 0.1, FastWindow: 4, SlowWindow: 8})
	initApps(s, 1.0, "gold", "silver")
	for i := 0; i < 50; i++ {
		gold := measure(0, 0.8+0.01*float64(i%10))
		gold.Control.HeldStreak = i % 9
		gold.Control.Residual, gold.Control.HasResidual = 0.02*float64(i%5), true
		s.Observe(gold)
		s.Observe(measure(1, 1.2+0.05*float64(i%12)))
		step := check.Event{Kind: check.EvStep, Step: i, PowerW: 900 + float64(i%7)*10, HasPower: true}
		if i == 49 {
			step.Solve = mpc.SolveStats{Solves: 100, WarmAttempts: 98, ColdRetries: 3, Relaxations: 2, Fallbacks: 1}
		}
		s.Observe(step)
	}
	s.Observe(check.Event{Kind: check.EvConsolidate, Policy: "pac", Report: &optimizer.Report{Migrations: 4, Vetoed: 1},
		Nodes: 1234, Widenings: 2})
	s.Observe(check.Event{Kind: check.EvWatchdog, Policy: "watchdog",
		Report: &optimizer.Report{Migrations: 2, FailedMoves: 1, Unresolved: 1}, Degraded: true})
	s.Observe(check.Event{Kind: check.EvCrash, LostVMs: []string{"v1"}, Crash: check.CrashObservation{Server: "server-9", Evacuated: 3}})
	s.Observe(check.Event{Kind: check.EvBreaker, Breaker: check.BreakerObservation{State: guard.Open, Prev: guard.Closed, Cooldown: 10}})
	s.Observe(check.Event{Kind: check.EvBreaker, Breaker: check.BreakerObservation{State: guard.Closed, Prev: guard.Open}})
	s.Audit().Record(Decision{Step: 5, TimeSec: 300, Component: "pac", Action: "server-off",
		Target: "server-3", Reason: "load packed onto 2 servers", Span: "dcsim.consolidate"})
	return s
}

func TestScorecardReport(t *testing.T) {
	s := buildScorecard("unit")
	rep := s.Report()
	if rep.Schema != SchemaVersion || rep.Label != "unit" || rep.Steps != 50 {
		t.Fatalf("header wrong: %+v", rep)
	}
	if rep.MPC.Solves != 100 || rep.MPC.WarmHitRate != 0.95 {
		t.Fatalf("mpc slice wrong: %+v", rep.MPC)
	}
	if rep.MPC.Residual.Count != 50 {
		t.Fatalf("residual count = %d", rep.MPC.Residual.Count)
	}
	if len(rep.Apps) != 2 || rep.Apps[0].Name != "gold" || rep.Apps[1].Name != "silver" {
		t.Fatalf("apps wrong: %+v", rep.Apps)
	}
	if rep.Apps[0].Violations != 0 {
		t.Fatalf("gold violations = %d, want 0", rep.Apps[0].Violations)
	}
	if rep.Apps[1].Violations == 0 {
		t.Fatal("silver should violate its 1s target sometimes")
	}
	if rep.SLO.Good+rep.SLO.Bad != 100 {
		t.Fatalf("slo totals = %d good %d bad", rep.SLO.Good, rep.SLO.Bad)
	}
	if rep.Breaker.State != "closed" || rep.Breaker.Transitions != 2 {
		t.Fatalf("breaker slice wrong: %+v", rep.Breaker)
	}
	if rep.Optimizer.Passes != 1 || rep.Optimizer.WatchdogPasses != 1 ||
		rep.Optimizer.Migrations != 6 || rep.Optimizer.BnBNodes != 1234 ||
		rep.Optimizer.Widenings != 2 || rep.Optimizer.DegradedPasses != 1 {
		t.Fatalf("optimizer slice wrong: %+v", rep.Optimizer)
	}
	if rep.Cluster.Crashes != 1 || rep.Cluster.VMsEvacuated != 3 || rep.Cluster.VMsLost != 1 {
		t.Fatalf("cluster slice wrong: %+v", rep.Cluster)
	}
	if rep.Power == nil || rep.Power.Count != 50 {
		t.Fatalf("power slice wrong: %+v", rep.Power)
	}
	// The crash and both breaker transitions audit themselves.
	var actions []string
	for _, d := range rep.Audit.Records {
		actions = append(actions, d.Action)
	}
	if got := strings.Join(actions, " "); got != "server-crash breaker-open breaker-close server-off" {
		t.Fatalf("audit slice wrong: %s", got)
	}
}

func TestScorecardDeterministicJSON(t *testing.T) {
	var b1, b2 bytes.Buffer
	if err := buildScorecard("det").WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := buildScorecard("det").WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("same-build scorecard JSON not byte-identical")
	}
	if !strings.Contains(b1.String(), "\"schema\": \"vdcobs/v1\"") {
		t.Fatalf("schema marker missing:\n%s", b1.String())
	}
}

func TestScorecardMerge(t *testing.T) {
	mk := func(t90 float64, solve mpc.SolveStats, nodes int) *Scorecard {
		s := New(Config{SLOBudget: 0.1, FastWindow: 4, SlowWindow: 8})
		initApps(s, 1.0, "app")
		for i := 0; i < 10; i++ {
			s.Observe(measure(0, t90))
			s.Observe(check.Event{Kind: check.EvStep, Solve: solve})
		}
		s.Observe(check.Event{Kind: check.EvConsolidate, Report: &optimizer.Report{}, Nodes: nodes})
		return s
	}
	a := mk(0.5, mpc.SolveStats{Solves: 10, WarmAttempts: 9, ColdRetries: 1}, 100)
	b := mk(2.0, mpc.SolveStats{Solves: 20, WarmAttempts: 18, ColdRetries: 2, Relaxations: 1, Fallbacks: 1}, 50)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	rep := a.Report()
	if rep.Steps != 20 || rep.MPC.Solves != 30 || rep.Optimizer.BnBNodes != 150 {
		t.Fatalf("merged counters wrong: %+v", rep)
	}
	if rep.Apps[0].Samples != 20 || rep.Apps[0].Violations != 10 {
		t.Fatalf("merged app wrong: %+v", rep.Apps[0])
	}
	if rep.SLO.Good != 10 || rep.SLO.Bad != 10 {
		t.Fatalf("merged slo wrong: %+v", rep.SLO)
	}
}

func TestScorecardMergeIntoEmptyAdoptsApps(t *testing.T) {
	agg := New(Config{SLOBudget: 0.1, FastWindow: 4, SlowWindow: 8})
	w := New(agg.Config())
	initApps(w, 1.0, "app")
	w.Observe(measure(0, 0.5))
	if err := agg.Merge(w); err != nil {
		t.Fatal(err)
	}
	rep := agg.Report()
	if len(rep.Apps) != 1 || rep.Apps[0].Samples != 1 {
		t.Fatalf("aggregate did not adopt apps: %+v", rep.Apps)
	}
}

func TestScorecardMergeRejectsMismatch(t *testing.T) {
	a := New(Config{SLOBudget: 0.1, FastWindow: 4, SlowWindow: 8})
	b := New(Config{SLOBudget: 0.2, FastWindow: 4, SlowWindow: 8})
	if err := a.Merge(b); err == nil {
		t.Fatal("merge should reject mismatched SLO geometry")
	}
	c := New(a.Config())
	initApps(a, 1, "x")
	initApps(c, 1, "y")
	if err := a.Merge(c); err == nil {
		t.Fatal("merge should reject mismatched app names")
	}
	d := New(a.Config())
	initApps(d, 1, "x", "z")
	if err := a.Merge(d); err == nil {
		t.Fatal("merge should reject mismatched app counts")
	}
}

func TestScorecardMergeOrderInvariant(t *testing.T) {
	mk := func(seed int) *Scorecard {
		s := New(Config{SLOBudget: 0.1, FastWindow: 4, SlowWindow: 8})
		initApps(s, 1.0, "app")
		for i := 0; i < 20+seed; i++ {
			ev := measure(0, 0.1*float64((i*seed)%30))
			ev.Control.Residual, ev.Control.HasResidual = 0.01*float64(seed), true
			s.Observe(ev)
			s.Observe(check.Event{Kind: check.EvStep, PowerW: 800 + float64(seed*i%100), HasPower: true})
		}
		return s
	}
	marshal := func(order []int) []byte {
		agg := New(Config{SLOBudget: 0.1, FastWindow: 4, SlowWindow: 8})
		for _, seed := range order {
			if err := agg.Merge(mk(seed)); err != nil {
				t.Fatal(err)
			}
		}
		var b bytes.Buffer
		if err := agg.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	// Audit records are empty here, so sequence reassignment cannot
	// distinguish the orders; everything else must be order-invariant.
	if !bytes.Equal(marshal([]int{1, 2, 3}), marshal([]int{3, 1, 2})) {
		t.Fatal("scorecard merge not order-invariant")
	}
}

func TestScorecardResidualAbs(t *testing.T) {
	s := New(Config{})
	s.Observe(check.Event{Kind: check.EvControl, Control: check.ControlObservation{Residual: -0.5, HasResidual: true}})
	rep := s.Report()
	if math.Abs(rep.MPC.Residual.Max-0.5) > 1e-12 {
		t.Fatalf("residual should be absolute: %+v", rep.MPC.Residual)
	}
}

// A fresh scorecard reports a closed breaker, so the first "closed" it
// records is no transition; every later name is reported as recorded.
func TestBreakerStateName(t *testing.T) {
	s := New(Config{})
	if b := s.Report().Breaker; b.State != "closed" || b.Transitions != 0 {
		t.Fatalf("fresh breaker = %+v", b)
	}
	s.Observe(check.Event{Kind: check.EvBreaker, Breaker: check.BreakerObservation{State: guard.Closed, Prev: guard.Closed}})
	s.Observe(check.Event{Kind: check.EvBreaker, Breaker: check.BreakerObservation{State: guard.HalfOpen, Prev: guard.Closed}})
	if b := s.Report().Breaker; b.State != "half-open" || b.Transitions != 1 {
		t.Fatalf("breaker = %+v, want half-open after 1 transition", b)
	}
}
