package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
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
	s.ObserveStep()
	s.ObserveResponse(0, 1)
	s.ObserveSLO(true)
	s.ObservePower(100)
	s.RecordControl(true, false, false, 1)
	s.ObserveResidual(0.1)
	s.SetMPC(1, 1, 0, 0, 0)
	s.RecordBreaker("open", 5)
	s.AddOptimizerPass(1, 0, 0, 0, false)
	s.AddWatchdogPass(1, 0, 0, false)
	s.AddSearch(10, 1)
	s.RecordCrash(2, 0)
	s.Audit().Record(Decision{})
	s.SLO().Observe(true)
	if err := s.Merge(New(Config{})); err != nil {
		t.Fatal(err)
	}
	if s.RegisterApp("x", 1) != -1 {
		t.Fatal("nil RegisterApp should return -1")
	}
	rep := s.Report()
	if rep.Schema != SchemaVersion {
		t.Fatalf("nil report schema = %q", rep.Schema)
	}
}

func buildScorecard(label string) *Scorecard {
	s := New(Config{Label: label, SLOTargetSec: 1.0, SLOBudget: 0.1, FastWindow: 4, SlowWindow: 8})
	a0 := s.RegisterApp("gold", 1.0)
	a1 := s.RegisterApp("silver", 1.5)
	for i := 0; i < 50; i++ {
		s.ObserveStep()
		s.ObserveResponse(a0, 0.8+0.01*float64(i%10))
		s.ObserveResponse(a1, 1.2+0.05*float64(i%12))
		s.ObservePower(900 + float64(i%7)*10)
		s.RecordControl(i%9 == 0, false, i%25 == 0, i%9)
		s.ObserveResidual(0.02 * float64(i%5))
	}
	s.SetMPC(100, 98, 3, 2, 1)
	s.AddOptimizerPass(4, 1, 0, 0, false)
	s.AddWatchdogPass(2, 1, 1, true)
	s.AddSearch(1234, 2)
	s.RecordCrash(3, 1)
	s.RecordBreaker("open", 10)
	s.RecordBreaker("closed", 0)
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
		t.Fatal("silver should violate its 1.5s target sometimes")
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
	if len(rep.Audit.Records) != 1 || rep.Audit.Records[0].Action != "server-off" {
		t.Fatalf("audit slice wrong: %+v", rep.Audit)
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
	mk := func() *Scorecard {
		s := New(Config{SLOBudget: 0.1, FastWindow: 4, SlowWindow: 8})
		s.RegisterApp("app", 1.0)
		return s
	}
	a, b := mk(), mk()
	for i := 0; i < 10; i++ {
		a.ObserveStep()
		a.ObserveResponse(0, 0.5)
		b.ObserveStep()
		b.ObserveResponse(0, 2.0)
	}
	a.SetMPC(10, 9, 1, 0, 0)
	b.SetMPC(20, 18, 2, 1, 1)
	a.AddSearch(100, 1)
	b.AddSearch(50, 0)
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
	w.RegisterApp("app", 1.0)
	w.ObserveResponse(0, 0.5)
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
	a.RegisterApp("x", 1)
	c.RegisterApp("y", 1)
	if err := a.Merge(c); err == nil {
		t.Fatal("merge should reject mismatched app names")
	}
	d := New(a.Config())
	d.RegisterApp("x", 1)
	d.RegisterApp("z", 1)
	if err := a.Merge(d); err == nil {
		t.Fatal("merge should reject mismatched app counts")
	}
}

func TestScorecardMergeOrderInvariant(t *testing.T) {
	mk := func(seed int) *Scorecard {
		s := New(Config{SLOBudget: 0.1, FastWindow: 4, SlowWindow: 8})
		s.RegisterApp("app", 1.0)
		for i := 0; i < 20+seed; i++ {
			s.ObserveStep()
			s.ObserveResponse(0, 0.1*float64((i*seed)%30))
			s.ObservePower(800 + float64(seed*i%100))
			s.ObserveResidual(0.01 * float64(seed))
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
	s.ObserveResidual(-0.5)
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
	s.RecordBreaker("closed", 0)
	s.RecordBreaker("half-open", 0)
	if b := s.Report().Breaker; b.State != "half-open" || b.Transitions != 1 {
		t.Fatalf("breaker = %+v, want half-open after 1 transition", b)
	}
}
