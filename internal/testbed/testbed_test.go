package testbed

import (
	"math"
	"testing"

	"vdcpower/internal/stats"
)

// quickConfig shrinks the testbed so unit tests stay fast while keeping
// the paper's structure (multi-app, two tiers, shared model).
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.NumApps = 3
	cfg.NumServers = 2
	cfg.IdentPeriods = 80
	cfg.IdentWarmupSec = 20
	return cfg
}

func TestNewBuildsTestbed(t *testing.T) {
	tb, err := New(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Apps) != 3 || len(tb.Controllers) != 3 {
		t.Fatalf("apps=%d controllers=%d", len(tb.Apps), len(tb.Controllers))
	}
	if len(tb.DC.Servers) != 2 {
		t.Fatalf("servers=%d", len(tb.DC.Servers))
	}
	// 3 apps × 2 tiers = 6 VMs placed.
	if got := len(tb.DC.VMs()); got != 6 {
		t.Fatalf("VMs=%d", got)
	}
	if err := tb.DC.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := quickConfig()
	cfg.NumServers = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("0 servers accepted")
	}
	cfg = quickConfig()
	cfg.NumApps = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("0 apps accepted")
	}
}

func TestIdentifiedModelIsCredible(t *testing.T) {
	tb, err := New(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Model.Na != 1 || tb.Model.Nb != 2 || tb.Model.NumInputs != 2 {
		t.Fatalf("model orders wrong: %+v", tb.Model)
	}
	// Stable, and more CPU must lower the response time: negative DC gains.
	if !tb.Model.Credible() {
		t.Fatalf("identified model not credible: %v", tb.Model)
	}
	if tb.Fit.R2 < 0.3 {
		t.Fatalf("identification fit too poor: R2=%v", tb.Fit.R2)
	}
}

func TestRunProducesRecords(t *testing.T) {
	tb, err := New(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := tb.Run(80, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 { // 80s / 4s
		t.Fatalf("records=%d", len(recs))
	}
	for _, r := range recs {
		if len(r.T90) != 3 {
			t.Fatalf("T90 width %d", len(r.T90))
		}
		if r.PowerW <= 0 {
			t.Fatalf("power %v", r.PowerW)
		}
	}
}

func TestRunHookFires(t *testing.T) {
	tb, err := New(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	if _, err := tb.Run(40, func(int, float64) { calls++ }); err != nil {
		t.Fatal(err)
	}
	if calls != 10 {
		t.Fatalf("hook calls=%d", calls)
	}
}

func TestControlConvergesToSetpoint(t *testing.T) {
	tb, err := New(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := tb.Run(600, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Average the last 100 s of each app's T90.
	tail := recs[len(recs)-25:]
	for i := range tb.Apps {
		var xs []float64
		for _, r := range tail {
			xs = append(xs, r.T90[i])
		}
		m := stats.Mean(xs)
		if math.Abs(m-1.0) > 0.35 {
			t.Fatalf("app %d settled at %v, want ≈1.0", i, m)
		}
	}
}

func TestDVFSSavesPowerAtLowLoad(t *testing.T) {
	// After convergence the controllers need far less than CMax; DVFS
	// should hold the cluster well under max power.
	tb, err := New(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := tb.Run(400, nil)
	if err != nil {
		t.Fatal(err)
	}
	maxPower := 0.0
	for _, s := range tb.DC.Servers {
		maxPower += s.Spec.MaxPower()
	}
	final := recs[len(recs)-1].PowerW
	if final >= maxPower*0.95 {
		t.Fatalf("no DVFS saving: %v of %v", final, maxPower)
	}
}

func TestFig2AllAppsNearSetpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	cfg := quickConfig()
	rows, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != cfg.NumApps {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.Mean-cfg.Setpoint) > 0.4 {
			t.Fatalf("%s mean %v too far from set point", r.Label, r.Mean)
		}
		if r.Std < 0 {
			t.Fatalf("%s negative std", r.Label)
		}
	}
}

func TestFig3StepRaisesPowerAndRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	cfg := quickConfig()
	res, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ResponseTime) == 0 || len(res.Power) != len(res.ResponseTime) {
		t.Fatal("empty series")
	}
	window := func(series []SeriesPoint, lo, hi float64) []float64 {
		var xs []float64
		for _, p := range series {
			if p.Time >= lo && p.Time < hi {
				xs = append(xs, p.Value)
			}
		}
		return xs
	}
	// Power rises during the surge (more CPU allocated).
	before := stats.Mean(window(res.Power, 400, 600))
	during := stats.Mean(window(res.Power, 800, 1200))
	if during <= before {
		t.Fatalf("power did not rise during surge: %v -> %v", before, during)
	}
	// Response time recovers to the set point during the surge's second
	// half (the controller has re-allocated by then).
	late := stats.Mean(window(res.ResponseTime, 900, 1200))
	if math.Abs(late-cfg.Setpoint) > 0.5 {
		t.Fatalf("surge not absorbed: late T90 %v", late)
	}
}

func TestFig4TracksAcrossConcurrency(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	cfg := quickConfig()
	rows, err := Fig4(cfg, []int{30, 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.Abs(r.Mean-cfg.Setpoint) > 0.4 {
			t.Fatalf("%s: mean %v off set point", r.Label, r.Mean)
		}
	}
}

func TestFig5TracksAcrossSetpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	cfg := quickConfig()
	sps := []float64{0.7, 1.2}
	rows, err := Fig5(cfg, sps)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if math.Abs(r.Mean-sps[i]) > 0.4 {
			t.Fatalf("%s: mean %v off target %v", r.Label, r.Mean, sps[i])
		}
	}
	// Achieved times must increase with the set point.
	if rows[1].Mean <= rows[0].Mean {
		t.Fatalf("set point sweep not monotone: %v vs %v", rows[0].Mean, rows[1].Mean)
	}
}
