package mpc

// Steady-state zero-allocation gate for the mpc/solve hot path (DESIGN
// §12): once the controller's workspace has warmed up to its
// high-water mark, Compute must not touch the heap. The gate runs in
// ordinary `go test`, so an allocation regression fails CI, not just a
// benchmark dashboard. Skipped under -race: the detector's shadow-state
// allocations would be charged to the code under test.

import (
	"testing"

	"vdcpower/internal/mat"
	"vdcpower/internal/race"
)

func TestComputeZeroAllocSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	ctl, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tHist := []float64{1.4, 1.5}
	cHist := []mat.Vec{{1.2, 1.3}, {1.2, 1.3}, {1.2, 1.3}}
	for i := 0; i < 5; i++ { // warm up buffers, workspace, and active set
		if _, err := ctl.Compute(tHist, cHist); err != nil {
			t.Fatal(err)
		}
	}
	var cErr error
	allocs := testing.AllocsPerRun(200, func() {
		_, cErr = ctl.Compute(tHist, cHist)
	})
	if cErr != nil {
		t.Fatal(cErr)
	}
	if allocs != 0 {
		t.Fatalf("Compute allocates %v objects/op in steady state, want 0", allocs)
	}
}

// TestComputeZeroAllocRelaxedPath gates the infeasible-terminal branch
// too: a sustained surge drives the controller through the relaxed QP
// every period, which must be equally allocation-free once warm.
func TestComputeZeroAllocRelaxedPath(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	cfg := defaultConfig()
	cfg.CMax = mat.Vec{1.0, 1.0}
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tHist := []float64{30, 30}
	cHist := []mat.Vec{{0.9, 0.9}, {0.9, 0.9}}
	res, err := ctl.Compute(tHist, cHist)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TerminalRelaxed {
		t.Fatal("setup: surge did not force the relaxed path")
	}
	for i := 0; i < 5; i++ {
		if _, err := ctl.Compute(tHist, cHist); err != nil {
			t.Fatal(err)
		}
	}
	var cErr error
	allocs := testing.AllocsPerRun(200, func() {
		_, cErr = ctl.Compute(tHist, cHist)
	})
	if cErr != nil {
		t.Fatal(cErr)
	}
	if allocs != 0 {
		t.Fatalf("relaxed Compute allocates %v objects/op in steady state, want 0", allocs)
	}
}
