package workload_test

import (
	"fmt"

	"vdcpower/internal/workload"
)

func ExampleGenerate() {
	tr, err := workload.Generate(workload.GenConfig{
		NumVMs: 100, Days: 7, StepsPerHour: 4, Seed: 2008,
	})
	if err != nil {
		panic(err)
	}
	sectors := map[workload.Sector]bool{}
	for _, s := range tr.Sectors {
		sectors[s] = true
	}
	fmt.Printf("%d VMs × %d samples, %d sectors\n", tr.NumVMs(), tr.NumSteps(), len(sectors))
	// Output: 100 VMs × 672 samples, 4 sectors
}
