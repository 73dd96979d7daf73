package cluster

// Native fuzzing for the active list: any sequence of placements,
// migrations, aborted migrations, idle sweeps, wakes and crashes must leave
// Active and NumActive equal to a fresh walk of the fleet. Seeds live in
// testdata/fuzz/FuzzActiveMatchesWalk.

import (
	"fmt"
	"testing"

	"vdcpower/internal/power"
)

// Ops of FuzzActiveMatchesWalk, one per three input bytes: the op, a server
// index and a VM index or demand.
const (
	opPlace = iota
	opMigrate
	opRollback
	opSleepIdle
	opWake
	opCrash
	numOps
)

func FuzzActiveMatchesWalk(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		specs := power.AllTypes()
		servers := make([]*Server, 6)
		for i := range servers {
			servers[i] = NewServer(fmt.Sprintf("s%d", i), specs[i%len(specs)])
		}
		dc, err := NewDataCenter(servers)
		if err != nil {
			t.Fatal(err)
		}
		var placed []*VM
		for i := 0; i+2 < len(data); i += 3 {
			op, srv, arg := data[i]%numOps, servers[int(data[i+1])%len(servers)], int(data[i+2])
			var v *VM
			if len(placed) > 0 {
				v = placed[arg%len(placed)]
			}
			switch op {
			case opPlace:
				if srv.State() == Failed {
					continue
				}
				nv := &VM{ID: fmt.Sprintf("vm%d", i), Demand: float64(arg) / 64, MemoryGB: 0.5}
				if err := dc.Place(nv, srv); err != nil {
					t.Fatalf("op %d: place: %v", i/3, err)
				}
				placed = append(placed, nv)
			case opMigrate, opRollback:
				if v == nil || srv.State() == Failed || dc.HostOf(v.ID) == srv {
					continue
				}
				tx, err := dc.BeginMigration(v, srv)
				if err != nil {
					t.Fatalf("op %d: begin: %v", i/3, err)
				}
				if op == opMigrate {
					_, err = tx.Commit()
				} else {
					err = tx.Rollback()
				}
				if err != nil {
					t.Fatalf("op %d: %v", i/3, err)
				}
			case opSleepIdle:
				dc.SleepIdle()
			case opWake:
				if srv.State() == Sleeping {
					srv.Wake()
				}
			case opCrash:
				lost := map[*VM]bool{}
				for _, o := range dc.Crash(srv) {
					lost[o] = true
				}
				kept := placed[:0]
				for _, p := range placed {
					if !lost[p] {
						kept = append(kept, p)
					}
				}
				placed = kept
			}
			var walk []*Server
			for _, s := range dc.Servers {
				if s.State() == Active {
					walk = append(walk, s)
				}
			}
			active := dc.Active()
			if dc.NumActive() != len(walk) || len(active) != len(walk) {
				t.Fatalf("op %d: NumActive %d, Active holds %d, the walk finds %d", i/3, dc.NumActive(), len(active), len(walk))
			}
			for j, s := range walk {
				if active[j] != s {
					t.Fatalf("op %d: Active[%d] = %s, the walk finds %s", i/3, j, active[j].ID, s.ID)
				}
			}
		}
	})
}

// TestNewDataCenterRefusesAnotherDataCentersServer: a server belongs to
// one data center, whose active list its state changes mark stale. A
// refused construction claims none of its servers.
func TestNewDataCenterRefusesAnotherDataCentersServer(t *testing.T) {
	a, b := NewServer("a", power.TypeMid()), NewServer("b", power.TypeMid())
	if _, err := NewDataCenter([]*Server{a, NewServer("a", power.TypeMid())}); err == nil {
		t.Fatal("duplicate server ID accepted")
	}
	if _, err := NewDataCenter([]*Server{a, b}); err != nil {
		t.Fatalf("servers of a refused data center were claimed: %v", err)
	}
	if _, err := NewDataCenter([]*Server{NewServer("c", power.TypeMid()), b}); err == nil {
		t.Fatal("a server of another data center accepted")
	}
}
