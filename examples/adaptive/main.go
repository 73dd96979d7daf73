// Adaptive: online re-identification with windowed ridge least squares. The
// application's per-request CPU demand triples mid-run (a workload-mix
// change — think a software release that makes queries heavier). A static
// controller keeps steering with the stale model; the adaptive controller
// re-fits the ARX model from live data and swaps it into the MPC.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"math"

	"vdcpower/internal/appsim"
	"vdcpower/internal/core"
	"vdcpower/internal/devs"
	"vdcpower/internal/mat"
	"vdcpower/internal/sysid"
	"vdcpower/internal/units"
)

const (
	period   = 4.0
	setpoint = 1.0
)

func buildApp(sim *devs.Simulator) *appsim.App {
	app := appsim.New(sim, appsim.Config{
		Name: "adaptive-demo",
		Tiers: []appsim.TierConfig{
			{DemandMean: 0.020, DemandCV: 1.0, InitialAllocation: 0.8},
			{DemandMean: 0.030, DemandCV: 1.0, InitialAllocation: 0.8},
		},
		Concurrency: 40,
		ThinkTime:   1.0,
		Seed:        3,
	})
	app.Start()
	return app
}

func identify(sim *devs.Simulator, app *appsim.App, seed int64) *sysid.Model {
	model, _, err := core.Identify(app, func(d units.Second) { sim.RunUntil(sim.Now() + d) }, core.Experiment{
		Warmup: 40, Periods: 100, Period: period,
		CMin: 0, CMax: 2, // each tier excited over [0.3, 1.7] GHz
		Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	return model
}

// run executes 240 periods with the demand tripling at period 80, and
// returns the mean |T90 − setpoint| over the post-change second half.
func run(adaptive bool) (float64, int) {
	sim := devs.NewSimulator()
	app := buildApp(sim)
	model := identify(sim, app, 17)
	base := core.DefaultControllerConfig(model, setpoint)
	base.CMax = mat.Vec{6, 6} // headroom for the 3× heavier workload

	var step func() (core.StepResult, error)
	var refits func() int
	if adaptive {
		ac, err := core.NewAdaptiveController(app, core.DefaultAdaptiveConfig(base))
		if err != nil {
			log.Fatal(err)
		}
		step = ac.Step
		refits = ac.Refits
	} else {
		c, err := core.NewResponseTimeController(app, base)
		if err != nil {
			log.Fatal(err)
		}
		step = c.Step
		refits = func() int { return 0 }
	}

	errSum, errN := 0.0, 0
	for k := 0; k < 240; k++ {
		if k == 80 {
			// The mix change: every request gets 3× heavier.
			app.SetDemandMean(0, 3*app.DemandMean(0))
			app.SetDemandMean(1, 3*app.DemandMean(1))
		}
		sim.RunUntil(sim.Now() + period)
		res, err := step()
		if err != nil {
			log.Fatal(err)
		}
		if k >= 160 { // steady state after the change
			errSum += math.Abs(res.T90 - setpoint)
			errN++
		}
	}
	return errSum / float64(errN), refits()
}

func main() {
	log.SetFlags(0)
	fmt.Println("workload-mix change at period 80: per-request CPU demand ×3")
	fmt.Println()
	staticErr, _ := run(false)
	adaptiveErr, refits := run(true)
	fmt.Printf("%-22s mean |T90 - 1000ms| after change: %4.0f ms\n", "static model:", staticErr*1000)
	fmt.Printf("%-22s mean |T90 - 1000ms| after change: %4.0f ms  (%d model refits)\n",
		"adaptive model:      ", adaptiveErr*1000, refits)
	fmt.Println()
	if adaptiveErr < staticErr {
		fmt.Printf("The adaptive model tracked the set point %.0f ms closer: re-identifying\n", (staticErr-adaptiveErr)*1000)
		fmt.Println("the plant online recovered what the stale gains lost.")
	} else {
		fmt.Printf("The static model tracked the set point %.0f ms closer: feedback alone\n", (adaptiveErr-staticErr)*1000)
		fmt.Printf("corrected for the stale gains, and %d online refits did not help.\n", refits)
	}
}
