package cluster

import (
	"testing"

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
	// A restored clone indexes its own servers, not the original's.
	clone, err := Restore(dc.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got := clone.Server("s2"); got == nil || got == dc.Servers[2] || got != clone.Servers[2] {
		t.Fatalf("clone's Server(s2) = %p, want the clone's own %p", got, clone.Servers[2])
	}
}

// TestNumActiveZeroAlloc: NumActive counts in place, so the per-step
// callers (testbed.Run, dcsim.Run) allocate nothing for it.
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
	if n != 33 || n != len(dc.ActiveServers()) {
		t.Fatalf("NumActive = %d, want 33 = len(ActiveServers) = %d", n, len(dc.ActiveServers()))
	}
}
