package testbed

import (
	"fmt"
	"math"
	"testing"

	"vdcpower/internal/core"
)

// TestMismatchEnvelope measures the static controller's robustness on
// the simulated plant, the claim of §VII-A that the controller holds the
// set point on "a system that is different from the one used to do
// system identification". Each cell identifies App1 of DefaultConfig at
// one seed, alone in its own event domain, exactly as New does, then
// scales every tier's mean service demand by g and controls the plant
// for 200 periods with the identified model. A cell holds if the mean
// T90 over the last 100 periods is within 0.2 s of the set point, the
// bound of Claim 1 in integration_test.go.
//
// The controller may give each tier 6 GHz. At the figures' 2.5 GHz a
// tier saturates from g = 2.5, which measures capacity, not mismatch.
// Identification keeps the figures' [0.1, 2.5] GHz excitation.
func TestMismatchEnvelope(t *testing.T) {
	grid := []float64{0.5, 0.75, 1, 1.5, 2, 2.5, 3}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			for _, g := range grid {
				if off := math.Abs(lateMeanT90(t, seed, g) - 1); off > 0.2 {
					t.Errorf("seed %d, demand ×%g: late mean T90 is %.3f s off the set point, %.3f s past the 0.2 s bound", seed, g, off, off-0.2)
				}
			}
		})
	}
}

// lateMeanT90 runs one envelope cell and returns the mean T90 of its
// last 100 periods.
func lateMeanT90(t *testing.T, seed int64, g float64) float64 {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed, cfg.NumApps, cfg.NumServers = seed, 1, 1
	tb, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Identify with cfg.experiment(), then restore the initial
	// allocations and drain the response window.
	if err := tb.identify(); err != nil {
		t.Fatal(err)
	}
	ctlCfg := core.DefaultControllerConfig(tb.Model, cfg.Setpoint)
	for i := range ctlCfg.CMin {
		ctlCfg.CMin[i], ctlCfg.CMax[i] = 0.1, 6
	}
	app := tb.Apps[0]
	ctl, err := core.NewResponseTimeController(app, ctlCfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < app.NumTiers(); j++ {
		app.SetDemandMean(j, g*app.DemandMean(j))
	}
	sum := 0.0
	for k := 0; k < 200; k++ {
		tb.Sim.RunUntil(tb.Sim.Now() + cfg.Period)
		res, err := ctl.Step()
		if err != nil {
			t.Fatal(err)
		}
		if k >= 100 {
			sum += res.T90
		}
	}
	return sum / 100
}
