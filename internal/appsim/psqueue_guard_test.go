package appsim

import (
	"math"
	"math/rand"
	"testing"

	"vdcpower/internal/devs"
)

// Regression for the Zeno wedge of DESIGN §14. At a large sim time the
// clock's ulp (~1.2e-7 s at t=1e9) dwarfs the completion tolerance
// (eps=1e-12 GHz·s of virtual work): a tiny job's remaining work sits
// above eps while its ETA underflows the clock, so the completion event
// re-armed at exactly `now` forever. Pre-fix this test never returned.
func TestPSQueueZenoWedgeAtLargeTime(t *testing.T) {
	sim := devs.NewSimulator()
	sim.RunUntil(1e9) // park the clock where ulp is coarse
	q := NewPSQueue(sim, 2.5)
	done := false
	q.Submit(1e-9, func() { done = true }) // ETA 4e-10 s << ulp(1e9)
	st, err := sim.RunUntilBudget(1e9+1, devs.Budget{MaxEvents: 10_000})
	if err != nil {
		t.Fatalf("drain tripped its budget — the Zeno guard regressed: %v", err)
	}
	if !done {
		t.Fatal("sub-resolution job never completed")
	}
	if st.Events > 4 {
		t.Fatalf("retiring one tiny job took %d events", st.Events)
	}
}

// The same shape with many tiny jobs sharing the instant: each complete
// pass must retire at least one job or schedule strictly later.
func TestPSQueueZenoWedgeManyTinyJobs(t *testing.T) {
	sim := devs.NewSimulator()
	sim.RunUntil(1e9)
	q := NewPSQueue(sim, 2.5)
	completed := 0
	for i := 0; i < 100; i++ {
		q.Submit(1e-9*float64(i+1), func() { completed++ })
	}
	if _, err := sim.RunUntilBudget(1e9+1, devs.Budget{MaxEvents: 10_000, MaxSameTimeEvents: 1_000}); err != nil {
		t.Fatalf("drain tripped: %v", err)
	}
	if completed != 100 {
		t.Fatalf("completed = %d, want 100", completed)
	}
}

// Satellite 2: non-finite demand must not poison the virtual clock.
func TestPSQueueSubmitNonFiniteDemand(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		sim := devs.NewSimulator()
		q := NewPSQueue(sim, 2.0)
		order := make([]int, 0, 2)
		q.Submit(bad, func() { order = append(order, 0) })
		q.Submit(1.0, func() { order = append(order, 1) })
		if _, err := sim.RunUntilBudget(100, devs.Budget{MaxEvents: 1_000}); err != nil {
			t.Fatalf("demand=%v wedged the queue: %v", bad, err)
		}
		if len(order) != 2 {
			t.Fatalf("demand=%v: %d of 2 jobs completed", bad, len(order))
		}
		// The degenerate job is clamped to a near-zero demand, so it must
		// finish first — NaN used to corrupt the job heap's ordering.
		if order[0] != 0 {
			t.Fatalf("demand=%v: completion order %v", bad, order)
		}
	}
}

// Satellite 2: non-finite capacity must clamp, not propagate.
func TestPSQueueNonFiniteCapacity(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -3} {
		sim := devs.NewSimulator()
		q := NewPSQueue(sim, bad)
		if c := q.Capacity(); math.IsNaN(c) || c < minCapacity || c > maxCapacity {
			t.Fatalf("NewPSQueue(%v): Capacity = %v", bad, c)
		}
		done := false
		q.Submit(1e-4, func() { done = true })
		q.SetCapacity(bad)
		if c := q.Capacity(); math.IsNaN(c) || c < minCapacity || c > maxCapacity {
			t.Fatalf("SetCapacity(%v): Capacity = %v", bad, c)
		}
		if _, err := sim.RunUntilBudget(1e6, devs.Budget{MaxEvents: 1_000}); err != nil {
			t.Fatalf("capacity=%v wedged the queue: %v", bad, err)
		}
		if !done {
			t.Fatalf("capacity=%v: job never completed", bad)
		}
	}
}

// Submit/SetCapacity churn used to cancel-and-recreate the completion
// event on every call; coalescing plus the kernel's lazy purge keep the
// kernel's pending count proportional to live work, not to call volume.
func TestPSQueueChurnKeepsKernelPendingBounded(t *testing.T) {
	sim := devs.NewSimulator()
	q := NewPSQueue(sim, 2.5)
	rng := rand.New(rand.NewSource(42))
	completed := 0
	for burst := 0; burst < 200; burst++ {
		for j := 0; j < 64; j++ {
			q.Submit(0.001+0.01*rng.Float64(), func() { completed++ })
			q.SetCapacity(0.5 + 4*rng.Float64())
		}
		if p := sim.Pending(); p > 2 {
			t.Fatalf("kernel pending = %d after burst %d, want <= 2 (one live completion event)", p, burst)
		}
		if _, err := sim.RunUntilBudget(sim.Now()+0.5, devs.Budget{MaxEvents: 1 << 20}); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	if completed != 200*64 {
		t.Fatalf("completed = %d, want %d", completed, 200*64)
	}
}
