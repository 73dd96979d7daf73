package optimizer

import (
	"fmt"
	"math/rand"
	"testing"

	"vdcpower/internal/cluster"
	"vdcpower/internal/power"
)

// Mechanics of the pMapper baseline, phase by phase.

func TestPMapperLeavesBalancedSystemAlone(t *testing.T) {
	// If the current placement already matches the virtual target, no
	// migrations should happen.
	dc := mixedDC(t, 1, 0, 0)
	placeVM(t, dc, "a", 2, 1, dc.Servers[0])
	pm := NewPMapper()
	rep, err := pm.Consolidate(dc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations != 0 {
		t.Fatalf("migrated %d on a balanced system", rep.Migrations)
	}
}

func TestPMapperDonorsShedSmallestFirst(t *testing.T) {
	// Low server hosts one big and two small VMs; the efficient high-end
	// server is empty. Phase 1 targets everything on high; phase 2 sheds
	// from the donor smallest-first.
	dc := mixedDC(t, 1, 0, 1)
	low := dc.Servers[1]
	placeVM(t, dc, "big", 2.0, 1, low)
	placeVM(t, dc, "small1", 0.2, 1, low)
	placeVM(t, dc, "small2", 0.3, 1, low)
	pm := NewPMapper()
	rep, err := pm.Consolidate(dc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations == 0 {
		t.Fatal("no migrations")
	}
	// Everything fits the 12-GHz high-end target, so the donor is fully
	// drained and slept.
	if low.State() != cluster.Sleeping {
		t.Fatalf("donor not drained: still hosts %d VMs", low.NumVMs())
	}
}

func TestPMapperRespectsConstraints(t *testing.T) {
	dc := mixedDC(t, 1, 3, 3)
	rng := rand.New(rand.NewSource(5))
	for i, s := range dc.Servers {
		placeVM(t, dc, fmt.Sprintf("v%d", i), 0.4+rng.Float64(), 0.5+rng.Float64()*2, s)
	}
	pm := NewPMapper()
	if _, err := pm.Consolidate(dc); err != nil {
		t.Fatal(err)
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, s := range dc.Servers {
		if s.Overloaded() {
			t.Fatalf("server %s overloaded", s.ID)
		}
		if s.TotalMemory() > s.Spec.MemoryGB+1e-9 {
			t.Fatalf("server %s memory oversubscribed", s.ID)
		}
	}
}

func TestPMapperHonorsCostPolicy(t *testing.T) {
	dc := mixedDC(t, 1, 2, 0)
	placeVM(t, dc, "a", 1, 1, dc.Servers[1])
	placeVM(t, dc, "b", 1, 1, dc.Servers[2])
	pm := NewPMapper()
	pm.Policy = DenyAll{}
	rep, err := pm.Consolidate(dc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations != 0 {
		t.Fatalf("deny-all policy bypassed: %d migrations", rep.Migrations)
	}
	if rep.Vetoed == 0 {
		t.Fatal("vetoes not recorded")
	}
}

func TestPMapperRecordsMoves(t *testing.T) {
	dc := mixedDC(t, 1, 3, 2)
	for i, s := range dc.Servers {
		placeVM(t, dc, fmt.Sprintf("v%d", i), 0.8, 1, s)
	}
	pm := NewPMapper()
	rep, err := pm.Consolidate(dc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Moves) != rep.Migrations {
		t.Fatalf("moves %d != migrations %d", len(rep.Moves), rep.Migrations)
	}
	for _, mv := range rep.Moves {
		if mv.From == mv.To || mv.VM == nil {
			t.Fatalf("bad move record %+v", mv)
		}
	}
}

// IPAC stress property: after any consolidation of random workloads, no
// server violates the vector constraints.
func TestIPACConstraintSafetyProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs := power.AllTypes()
		var servers []*cluster.Server
		for i := 0; i < 10; i++ {
			servers = append(servers, cluster.NewServer(fmt.Sprintf("s%d", i), specs[rng.Intn(3)]))
		}
		dc, err := cluster.NewDataCenter(servers)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ {
			v := &cluster.VM{
				ID:       fmt.Sprintf("vm%02d", i),
				Demand:   0.1 + rng.Float64()*1.5,
				MemoryGB: 0.2 + rng.Float64()*1.5,
			}
			if err := dc.Place(v, servers[rng.Intn(len(servers))]); err != nil {
				t.Fatal(err)
			}
		}
		ipac := NewIPAC()
		if _, err := ipac.Consolidate(dc); err != nil {
			t.Fatal(err)
		}
		if err := dc.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, s := range dc.Active() {
			if s.TotalMemory() > s.Spec.MemoryGB+1e-9 {
				t.Fatalf("seed %d: %s memory violated", seed, s.ID)
			}
			// IPAC may leave pre-existing load above its own headroom
			// (it only guarantees no *new* placement violates it), but
			// never above raw capacity unless the input was infeasible.
			if s.Overloaded() {
				t.Fatalf("seed %d: %s overloaded after consolidation", seed, s.ID)
			}
		}
	}
}
