package devs_test

import (
	"fmt"

	"vdcpower/internal/devs"
)

func ExampleSimulator() {
	sim := devs.NewSimulator()
	sim.Schedule(2.0, func() { fmt.Println("second at", sim.Now()) })
	sim.Schedule(1.0, func() {
		fmt.Println("first at", sim.Now())
		sim.After(0.5, func() { fmt.Println("follow-up at", sim.Now()) })
	})
	sim.Run()
	// Output:
	// first at 1
	// follow-up at 1.5
	// second at 2
}

func ExampleTimer() {
	sim := devs.NewSimulator()
	var tick *devs.Timer
	tick = sim.NewTimer("tick", func() {
		fmt.Println("tick at", sim.Now())
		if sim.Now() < 3 {
			tick.Reset(sim.Now() + 1) // re-arm from its own callback
		}
	})
	tick.Reset(5)
	tick.Reset(1) // moves the armed timer; it fires once, at 1
	sim.Run()
	// Output:
	// tick at 1
	// tick at 2
	// tick at 3
}
