// End-to-end integration tests: the paper's headline claims exercised
// through the public harnesses at reduced scale. These are the
// acceptance tests a release would gate on; the per-figure detail lives
// in bench_test.go and EXPERIMENTS.md.
package vdcpower_test

import (
	"math"
	"testing"

	"vdcpower/internal/cluster"
	"vdcpower/internal/dcsim"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/stats"
	"vdcpower/internal/testbed"
	"vdcpower/internal/workload"
)

// Claim 1 (Section VII-A): the MIMO response time controller holds every
// application's 90-percentile response time at the SLA set point.
func TestClaimResponseTimeAssurance(t *testing.T) {
	cfg := testbed.DefaultConfig()
	cfg.NumApps = 4
	cfg.NumServers = 2
	rows, err := testbed.Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.Abs(r.Mean-cfg.Setpoint) > 0.2 {
			t.Errorf("%s: mean %v strays from set point %v", r.Label, r.Mean, cfg.Setpoint)
		}
	}
}

// Claim 2 (Section VII-A, Fig. 3): a doubled workload is absorbed within
// a few control periods while an uncontrolled system violates for the
// whole surge.
func TestClaimSurgeAbsorption(t *testing.T) {
	cfg := testbed.DefaultConfig()
	cfg.NumApps = 4
	cfg.NumServers = 2
	controlled, err := testbed.Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	static, err := testbed.Fig3Static(cfg)
	if err != nil {
		t.Fatal(err)
	}
	late := func(res *testbed.Fig3Result) []float64 {
		var xs []float64
		for _, p := range res.ResponseTime {
			if p.Time >= 800 && p.Time < 1200 {
				xs = append(xs, p.Value)
			}
		}
		return xs
	}
	ctl := stats.Mean(late(controlled))
	st := stats.Mean(late(static))
	if math.Abs(ctl-cfg.Setpoint) > 0.4 {
		t.Errorf("controlled surge mean %v off set point", ctl)
	}
	if st < 2*ctl {
		t.Errorf("static surge mean %v not clearly worse than controlled %v", st, ctl)
	}
}

// Claim 3 (Section VII-B, Fig. 6): IPAC consumes less energy per VM than
// pMapper, with both trends preserved across data-center sizes.
func TestClaimIPACEnergySavings(t *testing.T) {
	tr, err := workload.Generate(workload.GenConfig{NumVMs: 200, Days: 2, StepsPerHour: 4, Seed: 2008})
	if err != nil {
		t.Fatal(err)
	}
	points, err := dcsim.Fig6Sweep(tr, []int{50, 200}, []func() optimizer.Consolidator{
		func() optimizer.Consolidator { return optimizer.NewIPAC() },
		func() optimizer.Consolidator { return optimizer.NewPMapper() },
	}, dcsim.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		saving := 1 - p.PerVMWh["IPAC"]/p.PerVMWh["pMapper"]
		if saving < 0.05 {
			t.Errorf("n=%d: IPAC saving %.1f%% too small", p.NumVMs, 100*saving)
		}
	}
}

// Claim 4 (Section III): the two levels integrate — consolidation on the
// long time scale saves power without breaking the short-time-scale SLAs.
func TestClaimIntegratedTwoLevels(t *testing.T) {
	cfg := testbed.DefaultConfig()
	cfg.NumApps = 6
	tb, err := testbed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachOptimizer(optimizer.NewIPAC(), 40, cluster.DefaultMigrationModel()); err != nil {
		t.Fatal(err)
	}
	recs, err := tb.Run(800, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tb.DC.NumActive() >= len(tb.DC.Servers) {
		t.Error("consolidation never slept a server")
	}
	tail := recs[len(recs)-40:]
	for i := range tb.Apps {
		var xs []float64
		for _, r := range tail {
			xs = append(xs, r.T90[i])
		}
		if m := stats.Mean(xs); math.Abs(m-cfg.Setpoint) > 0.45 {
			t.Errorf("app %d SLA broken under consolidation: %v", i, m)
		}
	}
}
