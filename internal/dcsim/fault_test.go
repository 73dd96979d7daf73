package dcsim

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/fault"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/probe"
)

// chaosProfile is a smoke-level everything-on profile: every fault class
// fires at rates a run should survive.
func chaosProfile() fault.Profile {
	return fault.Profile{
		Seed:      42,
		Sensor:    fault.SensorProfile{DropoutProb: 0.1, OutlierProb: 0.05},
		DVFS:      fault.DVFSProfile{FailProb: 0.05},
		Migration: fault.MigrationProfile{AbortProb: 0.3, MaxRetries: 2, BackoffSec: 2},
		Optimizer: fault.OptimizerProfile{ErrorProb: 0.1},
		Crash: fault.CrashProfile{
			At:     []fault.CrashSpec{{Step: 8}},
			Policy: fault.Evacuate,
		},
	}
}

// chaosConfig is a small fleet under the chaos profile, with the full law
// registry attached.
func chaosConfig(t *testing.T, p fault.Profile) (Config, *check.Checker) {
	t.Helper()
	cfg := DefaultConfig(testTrace(t), 40, optimizer.NewIPAC())
	cfg.FleetSize = 40
	cfg.WatchdogEverySteps = 4
	cfg.Faults = fault.New(p)
	checker := check.New(check.All()...)
	cfg.Probe = probe.New(checker)
	return cfg, checker
}

func TestChaosRunCompletesCleanly(t *testing.T) {
	cfg, checker := chaosConfig(t, chaosProfile())
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("chaos run aborted: %v", err)
	}
	if checker.NumViolations() != 0 {
		t.Fatalf("chaos run broke invariants: %v", checker.Err())
	}
	if res.FaultsInjected == 0 {
		t.Fatal("chaos profile injected nothing")
	}
	if res.Steps != cfg.Trace.NumSteps() || res.TotalEnergyWh <= 0 {
		t.Fatalf("chaos run did not complete: %+v steps", res.Steps)
	}
	if res.Crashes != 1 {
		t.Fatalf("Crashes = %d, want the one scheduled at step 8", res.Crashes)
	}
	if res.VMsLost != 0 {
		t.Fatalf("evacuate policy lost %d VMs", res.VMsLost)
	}
	if len(res.FaultLog) != res.FaultsInjected {
		t.Fatalf("FaultLog has %d records, FaultsInjected = %d", len(res.FaultLog), res.FaultsInjected)
	}
}

func TestFaultRunsAreBitReproducible(t *testing.T) {
	run := func() []byte {
		cfg, _ := chaosConfig(t, chaosProfile())
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("same-seed fault runs diverged:\n%s\n%s", a, b)
	}
}

func TestCrashLosePolicyReportsLosses(t *testing.T) {
	p := fault.Profile{
		Seed:  1,
		Crash: fault.CrashProfile{At: []fault.CrashSpec{{Step: 4}}, Policy: fault.Lose},
	}
	cfg, checker := chaosConfig(t, p)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("lose-policy run aborted: %v", err)
	}
	// The conservation laws must accept the reported loss instead of
	// flagging the vanished VMs.
	if checker.NumViolations() != 0 {
		t.Fatalf("reported losses flagged: %v", checker.Err())
	}
	if res.Crashes != 1 || res.VMsLost == 0 || res.VMsEvacuated != 0 {
		t.Fatalf("crashes=%d lost=%d evacuated=%d, want one lossy crash",
			res.Crashes, res.VMsLost, res.VMsEvacuated)
	}
}

func TestInjectedOptimizerErrorsDegradeNotAbort(t *testing.T) {
	p := fault.Profile{Seed: 3, Optimizer: fault.OptimizerProfile{ErrorProb: 1}}
	cfg, checker := chaosConfig(t, p)
	cfg.WatchdogEverySteps = 0 // isolate the consolidator: no watchdog moves
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("degraded run aborted: %v", err)
	}
	if res.DegradedPasses == 0 {
		t.Fatal("no degraded passes counted with error_prob = 1")
	}
	if res.Migrations != 0 {
		t.Fatalf("all passes failed yet %d migrations committed", res.Migrations)
	}
	if checker.NumViolations() != 0 {
		t.Fatalf("degraded run broke invariants: %v", checker.Err())
	}
}

// failsOnSecondPass fails its second invocation with a real (non-injected)
// error, after the run has accounted energy for a full optimizer period.
type failsOnSecondPass struct {
	inner optimizer.Consolidator
	calls int
}

func (f *failsOnSecondPass) Consolidate(dc *cluster.DataCenter) (optimizer.Report, error) {
	f.calls++
	if f.calls == 2 {
		return optimizer.Report{}, errors.New("planner wedged")
	}
	return f.inner.Consolidate(dc)
}
func (f *failsOnSecondPass) UsesDVFS() bool { return true }
func (f *failsOnSecondPass) Name() string   { return "fails-on-second" }

func TestRealErrorReturnsPartialResult(t *testing.T) {
	tr := testTrace(t)
	cfg := DefaultConfig(tr, 20, &failsOnSecondPass{inner: optimizer.NewIPAC()})
	cfg.FleetSize = 30
	res, err := Run(cfg)
	if err == nil {
		t.Fatal("real consolidator error did not surface")
	}
	if !strings.Contains(err.Error(), "planner wedged") {
		t.Fatalf("error lost the cause: %v", err)
	}
	// Satellite: the partial result carries what the run accumulated up to
	// the failure, not a zero value.
	if res.Steps != cfg.OptimizeEverySteps {
		t.Fatalf("partial Steps = %d, want %d (failure at the second pass)", res.Steps, cfg.OptimizeEverySteps)
	}
	if res.TotalEnergyWh <= 0 || res.MeanActive <= 0 {
		t.Fatalf("partial result empty: energy=%v meanActive=%v", res.TotalEnergyWh, res.MeanActive)
	}
}

// TestReusedConsolidatorSurvivesChaos guards the pooled search buffers
// (DESIGN §12): an IPAC whose node pool and stats just went through
// a chaos run — crashes, migration aborts, injected pass errors firing
// mid-consolidation — must behave on a subsequent clean run exactly like
// a fresh IPAC. Any divergence means an aborted pass left poisoned state
// in the reused buffers.
func TestReusedConsolidatorSurvivesChaos(t *testing.T) {
	cleanRun := func(c optimizer.Consolidator) []byte {
		cfg := DefaultConfig(testTrace(t), 40, c)
		cfg.FleetSize = 40
		cfg.WatchdogEverySteps = 4
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("clean run aborted: %v", err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	reused := optimizer.NewIPAC()
	chaosCfg, checker := chaosConfig(t, chaosProfile())
	chaosCfg.Consolidator = reused
	if _, err := Run(chaosCfg); err != nil {
		t.Fatalf("chaos run aborted: %v", err)
	}
	if checker.NumViolations() != 0 {
		t.Fatalf("chaos run broke invariants: %v", checker.Err())
	}
	// Run only wires a non-nil injector; detach the chaos plane by hand
	// so the second run is genuinely clean.
	reused.SetFaults(nil)
	got := cleanRun(reused)
	want := cleanRun(optimizer.NewIPAC())
	if string(got) != string(want) {
		t.Fatalf("reused consolidator diverged after chaos:\n%s\nfresh:\n%s", got, want)
	}
}

func TestSweepWithFaultProfile(t *testing.T) {
	tr := testTrace(t)
	p := chaosProfile()
	points, err := Fig6Sweep(tr, []int{24}, []func() optimizer.Consolidator{
		func() optimizer.Consolidator { return optimizer.NewIPAC() },
	}, SweepOptions{Workers: 2, FaultProfile: &p})
	if err != nil {
		t.Fatalf("faulted sweep: %v", err)
	}
	if len(points) != 1 || points[0].PerVMWh["IPAC"] <= 0 {
		t.Fatalf("faulted sweep produced no usable point: %+v", points)
	}
}

// TestDVFSAblationAbsorbsFaults: the noDVFS ablation hands the fault
// plane and the search counters through to the IPAC it wraps, so under
// a fault profile its passes fail and its migrations abort as IPAC's
// do, and the run counts its branch-and-bound nodes.
func TestDVFSAblationAbsorbsFaults(t *testing.T) {
	p := fault.Profile{Seed: 9,
		Migration: fault.MigrationProfile{AbortProb: 0.5},
		Optimizer: fault.OptimizerProfile{ErrorProb: 0.3}}
	cfg, checker := chaosConfig(t, p)
	cfg.WatchdogEverySteps = 0 // only the consolidator meets the faults
	cons := optimizer.WithoutDVFS{Inner: optimizer.NewIPAC()}
	cfg.Consolidator = cons
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("ablation run aborted: %v", err)
	}
	if checker.NumViolations() != 0 {
		t.Fatalf("ablation run broke invariants: %v", checker.Err())
	}
	if res.DegradedPasses == 0 || res.FailedMoves == 0 || res.FaultsInjected == 0 {
		t.Fatalf("the ablation's IPAC never met the fault plane: %d degraded passes, %d failed moves, %d faults",
			res.DegradedPasses, res.FailedMoves, res.FaultsInjected)
	}
	if nodes, _ := optimizer.SearchEffort(cons); nodes == 0 {
		t.Fatal("the ablation's search effort reads 0 nodes")
	}
}
