// Openloop: the response time controller under open (Poisson) traffic
// instead of the paper's closed-loop clients. The arrival rate ramps up
// hour by hour; the controller keeps the 90-percentile response time at
// the SLA while allocating just enough CPU for the current rate.
//
//	go run ./examples/openloop
package main

import (
	"fmt"
	"log"

	"vdcpower/internal/appsim"
	"vdcpower/internal/core"
	"vdcpower/internal/devs"
	"vdcpower/internal/mat"
	"vdcpower/internal/stats"
	"vdcpower/internal/units"
)

const (
	period   = 4.0
	setpoint = 0.5 // 500 ms: open traffic has no think-time ceiling
)

func main() {
	log.SetFlags(0)
	sim := devs.NewSimulator()
	app := appsim.New(sim, appsim.Config{
		Name: "api",
		Tiers: []appsim.TierConfig{
			{DemandMean: 0.020, DemandCV: 1.0, InitialAllocation: 1.0},
			{DemandMean: 0.030, DemandCV: 1.0, InitialAllocation: 1.0},
		},
		Concurrency: 0, // all traffic comes from the open source
		ThinkTime:   1.0,
		Seed:        2,
	})
	src := appsim.NewOpenWorkload(app, 15, 3)
	src.Start()

	// Identify under mid-range traffic.
	fmt.Println("identifying under 15 req/s...")
	model, _, err := core.Identify(app, func(d units.Second) { sim.RunUntil(sim.Now() + d) }, core.Experiment{
		Warmup: 40, Periods: 120, Period: period,
		// Excite each tier over [0.7, 2.5] GHz, the middle 70% of the
		// bounds, clearly above the open-system stability threshold
		// (rate x demand = 0.3/0.45 GHz): unlike the paper's closed
		// clients, open queues diverge at full utilization.
		CMin: 0.314, CMax: 2.886,
		Seed: 8,
	})
	if err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultControllerConfig(model, setpoint)
	cfg.CMin = mat.Vec{0.4, 0.4} // never starve a tier: open queues diverge
	cfg.CMax = mat.Vec{6, 6}
	ctl, err := core.NewResponseTimeController(app, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%10s %10s %14s %14s\n", "rate(r/s)", "p90 (ms)", "web (GHz)", "db (GHz)")
	for _, rate := range []float64{10, 20, 35, 50, 35, 15} {
		src.SetRate(rate)
		var tail []float64
		var alloc []float64
		for k := 0; k < 75; k++ { // ~5 min per rate level
			sim.RunUntil(sim.Now() + period)
			res, err := ctl.Step()
			if err != nil {
				log.Fatal(err)
			}
			if k >= 40 {
				tail = append(tail, res.T90)
				alloc = append(alloc[:0], res.Allocations...) // a view, valid until the next Step
			}
		}
		fmt.Printf("%10.0f %10.0f %14.2f %14.2f\n",
			rate, 1000*stats.Mean(tail), alloc[0], alloc[1])
	}
	fmt.Println("\nThe allocations track the arrival rate while the p90 holds near")
	fmt.Printf("the %.0f ms SLA — right-sizing that DVFS then turns into power savings.\n", setpoint*1000)
}
