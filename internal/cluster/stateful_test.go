package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"vdcpower/internal/power"
)

// Stateful property test: a long random sequence of data-center
// operations must never break the structural invariants, the active list
// among them. This is the kind of churn the optimizer inflicts over weeks
// of simulated time, plus the crashes and aborted migrations of the fault
// plane.
func TestRandomOperationSequencePreservesInvariants(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs := power.AllTypes()
		var servers []*Server
		for i := 0; i < 6; i++ {
			servers = append(servers, NewServer(fmt.Sprintf("s%d", i), specs[i%3]))
		}
		dc, err := NewDataCenter(servers)
		if err != nil {
			t.Fatal(err)
		}
		// pick returns a random server that has not crashed, or nil.
		pick := func() *Server {
			s := servers[rng.Intn(len(servers))]
			if s.State() == Failed {
				return nil
			}
			return s
		}
		var placed []*VM
		nextID, crashed := 0, 0
		for op := 0; op < 500; op++ {
			switch rng.Intn(8) {
			case 0, 1: // place a new VM
				target := pick()
				if target == nil {
					continue
				}
				v := &VM{
					ID:       fmt.Sprintf("vm%d", nextID),
					Demand:   rng.Float64() * 2,
					MemoryGB: rng.Float64() * 2,
				}
				nextID++
				if err := dc.Place(v, target); err != nil {
					t.Fatalf("seed %d op %d: place: %v", seed, op, err)
				}
				placed = append(placed, v)
			case 2: // migrate a random VM
				target := pick()
				if len(placed) == 0 || target == nil {
					continue
				}
				v := placed[rng.Intn(len(placed))]
				if dc.HostOf(v.ID) == target {
					continue
				}
				if _, err := dc.Migrate(v, target); err != nil {
					t.Fatalf("seed %d op %d: migrate: %v", seed, op, err)
				}
			case 3: // remove a random VM
				if len(placed) == 0 {
					continue
				}
				i := rng.Intn(len(placed))
				if err := dc.Remove(placed[i]); err != nil {
					t.Fatalf("seed %d op %d: remove: %v", seed, op, err)
				}
				placed = append(placed[:i], placed[i+1:]...)
			case 4: // sleep idle servers
				dc.SleepIdle()
			case 5: // wake a random server and adjust its frequency
				s := pick()
				if s == nil {
					continue
				}
				if s.State() == Sleeping {
					s.Wake()
				}
				ps := s.Spec.PStates
				s.SetFreq(ps[rng.Intn(len(ps))])
			case 6: // reserve a migration, then abort it
				target := pick()
				if len(placed) == 0 || target == nil {
					continue
				}
				v := placed[rng.Intn(len(placed))]
				if dc.HostOf(v.ID) == target {
					continue
				}
				was := target.State()
				tx, err := dc.BeginMigration(v, target)
				if err != nil {
					t.Fatalf("seed %d op %d: begin: %v", seed, op, err)
				}
				if err := dc.CheckInvariants(); err != nil {
					t.Fatalf("seed %d op %d: reserved: %v", seed, op, err)
				}
				if err := tx.Rollback(); err != nil {
					t.Fatalf("seed %d op %d: rollback: %v", seed, op, err)
				}
				if target.State() != was {
					t.Fatalf("seed %d op %d: rollback left %s %s, was %s", seed, op, target.ID, target.State(), was)
				}
			case 7: // crash a random server, losing its VMs
				// Crashes are permanent: keep them rare, and keep three
				// servers up.
				s := pick()
				if s == nil || rng.Intn(16) != 0 || len(servers)-crashed <= 3 {
					continue
				}
				crashed++
				lost := map[*VM]bool{}
				for _, v := range dc.Crash(s) {
					lost[v] = true
				}
				kept := placed[:0]
				for _, v := range placed {
					if !lost[v] {
						kept = append(kept, v)
					}
				}
				placed = kept
			}
			if err := dc.CheckInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
		// Final audit: every placed VM is findable and hosted exactly once.
		for _, v := range placed {
			host := dc.HostOf(v.ID)
			if host == nil {
				t.Fatalf("seed %d: VM %s lost", seed, v.ID)
			}
			count := 0
			for _, hosted := range host.VMs() {
				if hosted == v {
					count++
				}
			}
			if count != 1 {
				t.Fatalf("seed %d: VM %s hosted %d times", seed, v.ID, count)
			}
		}
		if got := len(dc.VMs()); got != len(placed) {
			t.Fatalf("seed %d: dc has %d VMs, expected %d", seed, got, len(placed))
		}
	}
}

// TotalPower must always equal the sum over servers, whatever the state.
func TestTotalPowerConsistencyUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dc := testDC(t, 4)
	for op := 0; op < 100; op++ {
		s := dc.Servers[rng.Intn(4)]
		if s.State() == Active && s.NumVMs() == 0 && rng.Intn(2) == 0 {
			s.Sleep()
		} else if s.State() == Sleeping {
			s.Wake()
		}
		sum := 0.0
		for _, srv := range dc.Servers {
			sum += srv.Power()
		}
		if got := dc.TotalPower(); got != sum {
			t.Fatalf("op %d: TotalPower %v != sum %v", op, got, sum)
		}
	}
}
