package dcsim

import (
	"errors"
	"strings"
	"testing"

	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/probe"
)

// brokenConsolidator always fails its pass, like a wedged planner.
type brokenConsolidator struct{}

func (brokenConsolidator) Consolidate(*cluster.DataCenter) (optimizer.Report, error) {
	return optimizer.Report{}, errors.New("planner wedged")
}
func (brokenConsolidator) UsesDVFS() bool { return true }
func (brokenConsolidator) Name() string   { return "broken" }

func TestRunSurfacesConsolidatorError(t *testing.T) {
	tr := testTrace(t)
	_, err := Run(DefaultConfig(tr, 20, brokenConsolidator{}))
	if err == nil {
		t.Fatal("failing consolidator did not surface an error")
	}
	if !strings.Contains(err.Error(), "planner wedged") {
		t.Fatalf("error lost the cause: %v", err)
	}
}

// wastefulIPAC claims to be an IPAC variant but wakes every suspended
// server after the real pass — exactly the regression the
// active-monotone invariant exists to catch.
type wastefulIPAC struct{ inner *optimizer.IPAC }

func (w wastefulIPAC) Consolidate(dc *cluster.DataCenter) (optimizer.Report, error) {
	rep, err := w.inner.Consolidate(dc)
	if err != nil {
		return rep, err
	}
	for _, s := range dc.Servers {
		if s.State() != cluster.Active {
			s.Wake()
		}
	}
	rep.ActiveAfter = dc.NumActive()
	return rep, nil
}
func (w wastefulIPAC) UsesDVFS() bool { return true }
func (w wastefulIPAC) Name() string   { return "IPAC-wasteful" }

func TestCheckerCatchesWastefulIPAC(t *testing.T) {
	tr := testTrace(t)
	checker := check.New(check.OptimizerInvariants()...)
	cfg := DefaultConfig(tr, 40, wastefulIPAC{inner: optimizer.NewIPAC()})
	cfg.FleetSize = 30 // keep the all-awake pathology cheap to simulate
	cfg.Probe = probe.New(checker)
	res, err := Run(cfg)
	if err == nil {
		t.Fatal("server-waking IPAC variant not caught")
	}
	if checker.NumViolations() == 0 {
		t.Fatal("run failed but no violations recorded")
	}
	if !strings.Contains(err.Error(), "ipac-active-monotone") {
		t.Fatalf("wrong invariant fired: %v", err)
	}
	// Violations surface at the end: the run itself still completes and
	// accounts energy instead of halting mid-trace.
	if res.Steps != tr.NumSteps() || res.TotalEnergyWh <= 0 {
		t.Fatalf("run did not complete: %+v", res)
	}
}

func TestCheckerCleanOnRealPolicies(t *testing.T) {
	tr := testTrace(t)
	for _, cons := range []optimizer.Consolidator{optimizer.NewIPAC(), optimizer.NewPMapper()} {
		checker := check.New(check.All()...)
		cfg := DefaultConfig(tr, 40, cons)
		cfg.WatchdogEverySteps = 4
		cfg.Probe = probe.New(checker)
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", cons.Name(), err)
		}
		if checker.Events() == 0 {
			t.Fatalf("%s: checker observed nothing", cons.Name())
		}
	}
}
