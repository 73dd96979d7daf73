package core_test

import (
	"fmt"

	"vdcpower/internal/cluster"
	"vdcpower/internal/core"
	"vdcpower/internal/power"
)

func ExampleArbitrator() {
	srv := cluster.NewServer("s1", power.TypeHighEnd()) // 4 cores, 1.0–3.0 GHz
	dc, err := cluster.NewDataCenter([]*cluster.Server{srv})
	if err != nil {
		panic(err)
	}
	// Two tier VMs demand 2 + 1.5 GHz: the arbitrator grants both in full
	// and throttles to the lowest P-state covering 3.5 GHz.
	for id, demand := range map[string]float64{"web": 2.0, "db": 1.5} {
		if err := dc.Place(&cluster.VM{ID: id, Demand: demand, MemoryGB: 1}, srv); err != nil {
			panic(err)
		}
	}
	arb := &core.Arbitrator{Server: srv}
	grants, f := arb.Arbitrate()
	fmt.Printf("frequency %.1f GHz, %d grants in full\n", f, len(grants))
	// Output: frequency 1.0 GHz, 2 grants in full
}
