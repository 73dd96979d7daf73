package testbed

import (
	"testing"

	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/fault"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/probe"
)

// TestFaultedRunStaysClean drives the full closed loop with every fault
// class injecting at smoke rates, under the complete law registry —
// including the two degradation laws — and requires a spotless verdict.
func TestFaultedRunStaysClean(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumApps = 2
	cfg.NumServers = 3
	cfg.IdentPeriods = 60
	cfg.IdentWarmupSec = 20
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachOptimizer(optimizer.NewIPAC(), 5, cluster.DefaultMigrationModel()); err != nil {
		t.Fatal(err)
	}
	inj := fault.New(fault.Profile{
		Seed:      9,
		Sensor:    fault.SensorProfile{DropoutProb: 0.2, OutlierProb: 0.05, StuckProb: 0.05},
		DVFS:      fault.DVFSProfile{FailProb: 0.1},
		Migration: fault.MigrationProfile{AbortProb: 0.5, MaxRetries: 2},
		Optimizer: fault.OptimizerProfile{ErrorProb: 0.2},
	})
	tb.AttachFaults(inj)
	c := check.New(check.All()...)
	tb.AttachProbe(probe.New(c))
	if _, err := tb.Run(25*cfg.Period, nil); err != nil {
		t.Fatalf("faulted run aborted: %v", err)
	}
	if c.NumViolations() != 0 {
		t.Fatalf("faulted run broke invariants: %v", c.Violations())
	}
	if inj.Injected() == 0 {
		t.Fatal("fault plane injected nothing at smoke rates")
	}
	if inj.InjectedByKind()[fault.SensorDropout] == 0 {
		t.Fatal("no sensor dropouts over 25 periods at p=0.2")
	}
}

// TestTotalDropoutGoesOpenLoop starves every controller of measurements and
// checks the degradation ladder end to end: the hold window rides out the
// first dropouts, then the controllers go open-loop — all under the
// hold-window staleness law, which would flag any early or late transition.
func TestTotalDropoutGoesOpenLoop(t *testing.T) {
	cfg := quickConfig()
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(fault.Profile{
		Seed:   4,
		Sensor: fault.SensorProfile{DropoutProb: 1},
	})
	tb.AttachFaults(inj)
	c := check.New(check.FaultInvariants()...)
	tb.AttachProbe(probe.New(c))
	recs, err := tb.Run(8*cfg.Period, nil)
	if err != nil {
		t.Fatalf("starved run aborted: %v", err)
	}
	if len(recs) != 8 {
		t.Fatalf("got %d records, want 8", len(recs))
	}
	if c.NumViolations() != 0 {
		t.Fatalf("degradation ladder broke the staleness law: %v", c.Violations())
	}
	// 8 periods > the default hold window of 4: every controller must have
	// crossed into open-loop by now.
	for i, ctl := range tb.Controllers {
		if ctl.HoldWindow() >= 8 {
			t.Fatalf("controller %d hold window %d makes the test vacuous", i, ctl.HoldWindow())
		}
	}
	if inj.InjectedByKind()[fault.SensorDropout] < 8*len(tb.Controllers) {
		t.Fatalf("dropouts = %d, want every read dropped", inj.InjectedByKind()[fault.SensorDropout])
	}
}
