package cluster_test

import (
	"fmt"

	"vdcpower/internal/cluster"
	"vdcpower/internal/power"
)

func ExampleDataCenter() {
	dc, err := cluster.NewDataCenter([]*cluster.Server{
		cluster.NewServer("s1", power.TypeHighEnd()),
		cluster.NewServer("s2", power.TypeLow()),
	})
	if err != nil {
		panic(err)
	}
	vm := &cluster.VM{ID: "web", Demand: 1.5, MemoryGB: 2}
	if err := dc.Place(vm, dc.Servers[1]); err != nil {
		panic(err)
	}
	// Live-migrate to the efficient server: reserve the target, commit
	// the move, and sleep the empty source.
	tx, err := dc.BeginMigration(vm, dc.Servers[0])
	if err != nil {
		panic(err)
	}
	if _, err := tx.Commit(); err != nil {
		panic(err)
	}
	dc.SleepIdle()
	fmt.Printf("host=%s active=%d\n", dc.HostOf("web").ID, dc.NumActive())
	// Output: host=s1 active=1
}

func ExampleMigrationModel() {
	m := cluster.DefaultMigrationModel()
	// A 2 GB VM over a 1 Gbps migration network.
	fmt.Printf("downtime %.0fms\n", 1000*m.Downtime(2))
	// Output: downtime 38ms
}
