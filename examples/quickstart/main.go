// Quickstart: put one simulated two-tier web application under a MIMO
// response time controller and watch the 90-percentile response time
// converge to the SLA set point.
//
// This exercises the full application-level pipeline of the paper:
// system identification (Eq. 1) → MPC controller (Section IV-B) →
// closed-loop control of a processor-sharing application model.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"vdcpower/internal/appsim"
	"vdcpower/internal/core"
	"vdcpower/internal/devs"
	"vdcpower/internal/units"
)

func main() {
	log.SetFlags(0)
	const (
		period   = 4.0 // control period T, seconds
		setpoint = 1.0 // 90-percentile response time target, seconds
	)

	// A two-tier application (web + database) with 40 closed-loop
	// clients, as in the paper's RUBBoS testbed.
	sim := devs.NewSimulator()
	app := appsim.New(sim, appsim.Config{
		Name: "shop",
		Tiers: []appsim.TierConfig{
			{DemandMean: 0.025, DemandCV: 1.0, InitialAllocation: 0.8}, // web
			{DemandMean: 0.040, DemandCV: 1.0, InitialAllocation: 0.8}, // db
		},
		Concurrency: 40,
		ThinkTime:   1.0,
		Seed:        7,
	})
	app.Start()

	// Step 1 — system identification: excite the CPU allocations and fit
	// the ARX model of Eq. (1).
	fmt.Println("identifying the response time model...")
	model, _, err := core.Identify(app, func(d units.Second) { sim.RunUntil(sim.Now() + d) }, core.Experiment{
		Warmup: 40, Periods: 120, Period: period,
		CMin: 0, CMax: 2.2, // each tier excited over [0.33, 1.87] GHz
		Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s\n\n", model)

	// Step 2 — attach the response time controller.
	ctl, err := core.NewResponseTimeController(app, core.DefaultControllerConfig(model, setpoint))
	if err != nil {
		log.Fatal(err)
	}

	// Step 3 — closed-loop control.
	fmt.Printf("%8s %14s %12s %12s\n", "time(s)", "p90 resp (ms)", "web (GHz)", "db (GHz)")
	for k := 0; k < 60; k++ {
		sim.RunUntil(sim.Now() + period)
		res, err := ctl.Step()
		if err != nil {
			log.Fatal(err)
		}
		if k%5 == 0 {
			fmt.Printf("%8.0f %14.0f %12.2f %12.2f\n",
				sim.Now(), res.T90*1000, res.Allocations[0], res.Allocations[1])
		}
	}
	fmt.Printf("\ntarget was %.0f ms — the controller holds the SLA while\n", setpoint*1000)
	fmt.Println("allocating only as much CPU as the workload needs.")
}
