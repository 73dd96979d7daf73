package serve

import (
	"testing"

	"vdcpower/internal/race"
)

// TestWarmStepAllocatesAtMostThree: a warmed serve step allocates only
// the lock-free snapshot refreshLive publishes — the /status document,
// its app array and the live document — because readers may still hold
// the previous one. The testbed period allocates nothing, the history
// ring copies the period's record into rows it reuses, and the watchdog
// re-arms its one timer.
func TestWarmStepAllocatesAtMostThree(t *testing.T) {
	const maxStep, warm = 3, 100
	if race.Enabled {
		t.Skip("the race detector allocates shadow state")
	}
	s := testServer(t)
	step := func() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		step()
	}
	n := testing.AllocsPerRun(50, step)
	if n > maxStep {
		t.Fatalf("a warmed step allocates %v times, more than %d", n, maxStep)
	}
	t.Logf("allocations per step: %v", n)
}
