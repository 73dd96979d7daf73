package dcsim

import (
	"testing"

	"vdcpower/internal/optimizer"
	"vdcpower/internal/workload"
)

// saturatedTrace puts every VM at 100% for the whole horizon — a
// data-center-wide flash crowd beyond any consolidation remedy.
func saturatedTrace(t *testing.T, vms, steps int) *workload.Trace {
	t.Helper()
	names := make([]string, vms)
	sectors := make([]workload.Sector, vms)
	rows := make([][]float64, vms)
	for i := range rows {
		rows[i] = make([]float64, steps)
		for k := range rows[i] {
			// Nearly idle at placement time, saturated afterwards: the
			// flash crowd arrives after the VMs are packed tightly.
			if k == 0 {
				rows[i][k] = 0.05
			} else {
				rows[i][k] = 1.0
			}
		}
		// Names must be unique for placement.
		names[i] = workload.Sector(0).String() + "-vm-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
	}
	tr, err := workload.FromRows(900, names, sectors, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunSurvivesSaturation(t *testing.T) {
	// A tiny fleet that cannot possibly host the saturated VMs: the run
	// must complete, reporting unresolved overloads rather than failing.
	tr := saturatedTrace(t, 40, 8)
	cfg := DefaultConfig(tr, 40, optimizer.NewIPAC())
	cfg.FleetSize = 3                     // one of each type: 19 GHz total vs ~70 GHz demand
	cfg.VMMemMin, cfg.VMMemMax = 0.1, 0.5 // memory fits; CPU will not
	cfg.OptimizeEverySteps = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("saturated run failed: %v", err)
	}
	if res.OverloadSteps == 0 {
		t.Fatal("expected overloaded steps under saturation")
	}
	if res.TotalEnergyWh <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestRunSingleStepTrace(t *testing.T) {
	tr := saturatedTrace(t, 5, 1)
	cfg := DefaultConfig(tr, 5, optimizer.NewIPAC())
	cfg.FleetSize = 6
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 1 {
		t.Fatalf("steps = %d", res.Steps)
	}
}

func TestRunFleetTooSmallToPlace(t *testing.T) {
	// Initial placement itself is impossible: must error, not panic.
	tr := saturatedTrace(t, 50, 4)
	cfg := DefaultConfig(tr, 50, optimizer.NewIPAC())
	cfg.FleetSize = 3
	cfg.VMMemMin, cfg.VMMemMax = 8, 16 // memory alone overflows the fleet
	if _, err := Run(cfg); err == nil {
		t.Fatal("impossible placement did not error")
	}
}

func TestRunRejectsDegenerateFleet(t *testing.T) {
	tr := testTrace(t)
	cfg := DefaultConfig(tr, 10, optimizer.NewIPAC())
	cfg.FleetSize = 1
	if _, err := Run(cfg); err == nil {
		t.Fatal("fleet of 1 accepted")
	}
	cfg = DefaultConfig(tr, 10, optimizer.NewIPAC())
	cfg.FleetMix = [3]float64{0, 0, 0}
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero mix accepted")
	}
}
