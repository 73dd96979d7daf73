package cluster

import (
	"fmt"
	"testing"

	"vdcpower/internal/power"
	"vdcpower/internal/race"
)

func TestServerIndex(t *testing.T) {
	dc := testDC(t, 4)
	for _, s := range dc.Servers {
		if got := dc.Server(s.ID); got != s {
			t.Fatalf("Server(%q) = %p, want %p", s.ID, got, s)
		}
	}
	if got := dc.Server("nope"); got != nil {
		t.Fatalf("Server of an unknown ID = %v, want nil", got)
	}
	// A second data center with the same IDs indexes its own servers,
	// not the first one's.
	twin := testDC(t, 4)
	if got := twin.Server("s2"); got == nil || got == dc.Servers[2] || got != twin.Servers[2] {
		t.Fatalf("twin's Server(s2) = %p, want the twin's own %p", got, twin.Servers[2])
	}
}

// TestNumActiveZeroAlloc: the active list is preallocated at the fleet's
// size, so reading it, or rebuilding it after a state change, allocates
// nothing for the per-step callers (testbed.Run, dcsim.Run).
func TestNumActiveZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	dc := testDC(t, 50)
	for i, s := range dc.Servers {
		if i%3 == 0 {
			s.Sleep()
		}
	}
	n := 0
	allocs := testing.AllocsPerRun(100, func() { n = dc.NumActive() })
	if allocs != 0 {
		t.Fatalf("NumActive allocates %v objects per call, want 0", allocs)
	}
	if n != 33 || n != len(dc.Active()) {
		t.Fatalf("NumActive = %d, want 33 = len(Active) = %d", n, len(dc.Active()))
	}
	s := dc.Servers[0]
	allocs = testing.AllocsPerRun(100, func() {
		s.Wake()
		n = len(dc.Active())
		s.Sleep()
		n += len(dc.Active())
	})
	if allocs != 0 {
		t.Fatalf("rebuilding the active list allocates %v objects, want 0", allocs)
	}
	if n != 34+33 {
		t.Fatalf("active counts across a wake and a sleep sum to %d, want 67", n)
	}
}

// TestByEfficiency: the fleet order is a permutation of Servers, most
// power-efficient first with ties by ID, built once and shared.
func TestByEfficiency(t *testing.T) {
	types := power.AllTypes()
	servers := make([]*Server, 12)
	for i := range servers {
		servers[i] = NewServer(fmt.Sprintf("s%02d", (i*7)%12), types[i%len(types)])
	}
	dc, err := NewDataCenter(servers)
	if err != nil {
		t.Fatal(err)
	}
	order := dc.ByEfficiency()
	seen := make([]bool, len(servers))
	for j, i := range order {
		if seen[i] {
			t.Fatalf("index %d appears twice in %v", i, order)
		}
		seen[i] = true
		if j == 0 {
			continue
		}
		prev, cur := servers[order[j-1]], servers[i]
		pe, ce := prev.Spec.Efficiency(), cur.Spec.Efficiency()
		if pe < ce || (pe <= ce && prev.ID > cur.ID) {
			t.Fatalf("%s (%v) before %s (%v)", prev.ID, pe, cur.ID, ce)
		}
	}
	if len(order) != len(servers) {
		t.Fatalf("order has %d servers, fleet %d", len(order), len(servers))
	}
	if again := dc.ByEfficiency(); &again[0] != &order[0] {
		t.Fatal("the order is rebuilt on every call")
	}
}
