package appsim

import (
	"math"
	"runtime"
	"testing"

	"vdcpower/internal/devs"
	"vdcpower/internal/race"
	"vdcpower/internal/stats"
)

func TestPSQueueSingleJob(t *testing.T) {
	sim := devs.NewSimulator()
	q := NewPSQueue(sim, 2.0) // 2 GHz
	var doneAt float64 = -1
	q.Submit(1.0, func() { doneAt = sim.Now() }) // 1 GHz·s of work
	sim.Run()
	if math.Abs(doneAt-0.5) > 1e-9 {
		t.Fatalf("single job finished at %v, want 0.5", doneAt)
	}
}

func TestPSQueueEqualSharing(t *testing.T) {
	// Two identical jobs share the processor: both take twice as long.
	sim := devs.NewSimulator()
	q := NewPSQueue(sim, 1.0)
	var at []float64
	q.Submit(1.0, func() { at = append(at, sim.Now()) })
	q.Submit(1.0, func() { at = append(at, sim.Now()) })
	sim.Run()
	if len(at) != 2 {
		t.Fatalf("completions = %d", len(at))
	}
	for _, x := range at {
		if math.Abs(x-2.0) > 1e-9 {
			t.Fatalf("completion at %v, want 2.0", x)
		}
	}
}

func TestPSQueueUnequalJobs(t *testing.T) {
	// Jobs of 1 and 3 GHz·s at 1 GHz: the small one finishes at t=2
	// (shared), the big one at t=4 (1 left, alone at full speed after 2,
	// having done 1 of 3 by then... worked out: shares until small exits).
	sim := devs.NewSimulator()
	q := NewPSQueue(sim, 1.0)
	var small, big float64
	q.Submit(1.0, func() { small = sim.Now() })
	q.Submit(3.0, func() { big = sim.Now() })
	sim.Run()
	if math.Abs(small-2.0) > 1e-9 {
		t.Fatalf("small at %v, want 2", small)
	}
	if math.Abs(big-4.0) > 1e-9 {
		t.Fatalf("big at %v, want 4", big)
	}
}

func TestPSQueueLateArrival(t *testing.T) {
	// Job A (2 GHz·s) at t=0; job B (1 GHz·s) arrives at t=1.
	// A runs alone 0..1 (1 done), then shares: B needs 1 at 0.5 GHz →
	// finishes t=3; A has 1-... A: remaining 1 at t=1, gets 0.5 GHz for
	// 2s → finishes t=3 too.
	sim := devs.NewSimulator()
	q := NewPSQueue(sim, 1.0)
	var aAt, bAt float64
	q.Submit(2.0, func() { aAt = sim.Now() })
	sim.Schedule(1.0, func() { q.Submit(1.0, func() { bAt = sim.Now() }) })
	sim.Run()
	if math.Abs(aAt-3.0) > 1e-9 || math.Abs(bAt-3.0) > 1e-9 {
		t.Fatalf("a=%v b=%v, want both 3", aAt, bAt)
	}
}

func TestPSQueueCapacityChange(t *testing.T) {
	// 2 GHz·s job at 1 GHz; at t=1 capacity doubles → finish at 1.5.
	sim := devs.NewSimulator()
	q := NewPSQueue(sim, 1.0)
	var doneAt float64
	q.Submit(2.0, func() { doneAt = sim.Now() })
	sim.Schedule(1.0, func() { q.SetCapacity(2.0) })
	sim.Run()
	if math.Abs(doneAt-1.5) > 1e-9 {
		t.Fatalf("done at %v, want 1.5", doneAt)
	}
}

func TestPSQueueMinCapacityClamp(t *testing.T) {
	sim := devs.NewSimulator()
	q := NewPSQueue(sim, 0)
	if q.Capacity() <= 0 {
		t.Fatal("capacity must be clamped above zero")
	}
	q.SetCapacity(-5)
	if q.Capacity() <= 0 {
		t.Fatal("SetCapacity must clamp")
	}
}

func TestPSQueueBusyCycles(t *testing.T) {
	sim := devs.NewSimulator()
	q := NewPSQueue(sim, 2.0)
	q.Submit(1.0, func() {})
	sim.Run()
	if got := q.BusyCycles(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("BusyCycles = %v, want 1", got)
	}
}

func TestPSQueueLen(t *testing.T) {
	sim := devs.NewSimulator()
	q := NewPSQueue(sim, 1.0)
	q.Submit(10, func() {})
	q.Submit(10, func() {})
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func twoTierConfig(seed int64) Config {
	return Config{
		Name: "rubbos",
		Tiers: []TierConfig{
			{DemandMean: 0.025, DemandCV: 1.0, InitialAllocation: 1.0},
			{DemandMean: 0.040, DemandCV: 1.0, InitialAllocation: 1.0},
		},
		Concurrency: 40,
		ThinkTime:   1.0,
		Seed:        seed,
	}
}

func TestAppRunsAndCompletesRequests(t *testing.T) {
	sim := devs.NewSimulator()
	a := New(sim, twoTierConfig(1))
	a.Start()
	sim.RunUntil(60)
	if a.Completed() < 100 {
		t.Fatalf("completed only %d requests in 60s", a.Completed())
	}
	rt := a.DrainResponseTimes()
	if len(rt) != a.Completed() {
		t.Fatalf("window %d != completed %d", len(rt), a.Completed())
	}
	for _, x := range rt {
		if x <= 0 || x > 60 {
			t.Fatalf("implausible response time %v", x)
		}
	}
	// A second drain is empty.
	if len(a.DrainResponseTimes()) != 0 {
		t.Fatal("drain did not reset window")
	}
}

func TestAppDeterministicWithSeed(t *testing.T) {
	run := func() (int, float64) {
		sim := devs.NewSimulator()
		a := New(sim, twoTierConfig(7))
		a.Start()
		sim.RunUntil(30)
		rt := a.DrainResponseTimes()
		return a.Completed(), stats.Mean(rt)
	}
	n1, m1 := run()
	n2, m2 := run()
	if n1 != n2 || m1 != m2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", n1, m1, n2, m2)
	}
}

func TestAppMoreCPUMeansFasterResponses(t *testing.T) {
	measure := func(alloc float64) float64 {
		sim := devs.NewSimulator()
		cfg := twoTierConfig(3)
		cfg.Tiers[0].InitialAllocation = alloc
		cfg.Tiers[1].InitialAllocation = alloc
		a := New(sim, cfg)
		a.Start()
		sim.RunUntil(120)
		return stats.Percentile(a.DrainResponseTimes(), 90)
	}
	slow := measure(0.7)
	fast := measure(2.5)
	if fast >= slow {
		t.Fatalf("p90 with 2.5GHz (%v) not faster than 0.7GHz (%v)", fast, slow)
	}
}

func TestAppConcurrencyIncreaseRaisesLoad(t *testing.T) {
	sim := devs.NewSimulator()
	a := New(sim, twoTierConfig(4))
	a.Start()
	sim.RunUntil(60)
	base := stats.Percentile(a.DrainResponseTimes(), 90)
	a.SetConcurrency(80)
	sim.RunUntil(120)
	loaded := stats.Percentile(a.DrainResponseTimes(), 90)
	if loaded <= base {
		t.Fatalf("p90 did not rise after doubling concurrency: %v -> %v", base, loaded)
	}
}

func TestAppConcurrencyDecreaseRetiresClients(t *testing.T) {
	sim := devs.NewSimulator()
	a := New(sim, twoTierConfig(5))
	a.Start()
	sim.RunUntil(30)
	a.SetConcurrency(5)
	sim.RunUntil(90)
	// After retiring clients, in-flight must never exceed the new level.
	if got := a.InFlight(); got > 5 {
		t.Fatalf("in-flight %d exceeds concurrency 5", got)
	}
	a.DrainResponseTimes()
	before := a.Completed()
	sim.RunUntil(120)
	rate := float64(a.Completed()-before) / 30
	// 5 clients with ~1s cycle time cannot exceed ~5 req/s.
	if rate > 6 {
		t.Fatalf("throughput %v too high for 5 clients", rate)
	}
}

func TestAppSetConcurrencyZeroQuiesces(t *testing.T) {
	sim := devs.NewSimulator()
	a := New(sim, twoTierConfig(6))
	a.Start()
	sim.RunUntil(30)
	a.SetConcurrency(0)
	sim.RunUntil(60)
	a.DrainResponseTimes()
	before := a.Completed()
	sim.RunUntil(120)
	if a.Completed() != before {
		t.Fatal("requests still completing after concurrency 0")
	}
}

func TestAppAllocationsAccessors(t *testing.T) {
	sim := devs.NewSimulator()
	a := New(sim, twoTierConfig(8))
	a.SetAllocation(0, 1.7)
	if math.Abs(a.Allocation(0)-1.7) > 1e-12 {
		t.Fatalf("Allocation = %v", a.Allocation(0))
	}
	all := a.Allocations()
	if len(all) != 2 || all[0] != 1.7 {
		t.Fatalf("Allocations = %v", all)
	}
	if a.NumTiers() != 2 {
		t.Fatalf("NumTiers = %d", a.NumTiers())
	}
	if a.Tier(0) == nil {
		t.Fatal("Tier(0) nil")
	}
	if a.String() == "" {
		t.Fatal("String empty")
	}
}

func TestAppDeterministicDemand(t *testing.T) {
	sim := devs.NewSimulator()
	cfg := Config{
		Name:        "det",
		Tiers:       []TierConfig{{DemandMean: 0.01, DemandCV: 0, InitialAllocation: 1.0}},
		Concurrency: 1,
		ThinkTime:   1.0,
		Seed:        1,
	}
	a := New(sim, cfg)
	a.Start()
	sim.RunUntil(100)
	for _, rt := range a.DrainResponseTimes() {
		if math.Abs(rt-0.01) > 1e-9 {
			t.Fatalf("deterministic single-client response %v, want 0.01", rt)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	sim := devs.NewSimulator()
	for name, f := range map[string]func(){
		"no tiers": func() { New(sim, Config{Concurrency: 1}) },
		"negative concurrency": func() {
			New(sim, Config{Tiers: []TierConfig{{DemandMean: 1}}, Concurrency: -1})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestAppStartIdempotent(t *testing.T) {
	sim := devs.NewSimulator()
	a := New(sim, twoTierConfig(9))
	a.Start()
	a.Start()
	sim.RunUntil(20)
	if a.InFlight() > a.Concurrency() {
		t.Fatalf("double Start leaked clients: in-flight %d > %d", a.InFlight(), a.Concurrency())
	}
}

// Interactive response time law sanity check: X = N / (R + Z) in a closed
// network. Throughput measured must match the law within tolerance.
func TestAppInteractiveResponseTimeLaw(t *testing.T) {
	sim := devs.NewSimulator()
	a := New(sim, twoTierConfig(10))
	a.Start()
	sim.RunUntil(100) // warm up
	a.DrainResponseTimes()
	c0 := a.Completed()
	sim.RunUntil(700)
	rt := a.DrainResponseTimes()
	x := float64(a.Completed()-c0) / 600
	r := stats.Mean(rt)
	n := float64(a.Concurrency())
	law := n / (r + 1.0)
	if math.Abs(x-law)/law > 0.15 {
		t.Fatalf("throughput %v violates interactive law %v", x, law)
	}
}

func BenchmarkAppSimulation60s(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := devs.NewSimulator()
		a := New(sim, twoTierConfig(11))
		a.Start()
		sim.RunUntil(60)
	}
}

// Regression: regrowing after a shrink used to number the new clients
// from a counter already past the new level, so every one of them
// retired on its first request. Going 40→20→5→20 left throughput at a
// quarter of the first 20-client phase.
func TestAppSetConcurrencyRegrowth(t *testing.T) {
	sim := devs.NewSimulator()
	a := New(sim, twoTierConfig(7))
	a.Start()
	sim.RunUntil(60)
	// Every client is either thinking, with one pending think event, or
	// in flight; the only other events are one completion per busy tier.
	clients := func() int {
		n := sim.Pending() + a.InFlight()
		for j := 0; j < a.NumTiers(); j++ {
			if a.Tier(j).Len() > 0 {
				n--
			}
		}
		return n
	}
	phase := func(level int) float64 {
		a.SetConcurrency(level)
		sim.RunUntil(sim.Now() + 30) // let retirements and spawns settle
		before := a.Completed()
		for i := 0; i < 120; i++ {
			sim.RunUntil(sim.Now() + 1)
			if n := clients(); n != level {
				t.Fatalf("level %d: %d clients", level, n)
			}
		}
		return float64(a.Completed()-before) / 120
	}
	first := phase(20)
	phase(5)
	if regrown := phase(20); math.Abs(regrown-first) > 0.1*first {
		t.Fatalf("regrown 20-client rate %.2f req/s, first 20-client phase %.2f", regrown, first)
	}
	// Regrowing before the retired clients have left must let them carry
	// on, not start a second client in their slots.
	a.SetConcurrency(10)
	phase(40)
}

// Acceptance: once warmed, a control period of a closed-loop two-tier
// application (drain the kernel, then drain the response window)
// allocates nothing. Measured over whole periods via MemStats, so a
// single allocation anywhere in 50 periods fails the gate.
func TestWarmPeriodDrainZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gate not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sim := devs.NewSimulator()
	a := New(sim, twoTierConfig(3))
	a.Start()
	period := func() {
		sim.RunUntil(sim.Now() + 1)
		a.DrainResponseTimes()
	}
	for i := 0; i < 300; i++ {
		period()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 50; i++ {
		period()
	}
	runtime.ReadMemStats(&after)
	if d := after.Mallocs - before.Mallocs; d != 0 {
		t.Fatalf("50 warmed periods allocated %d times, want 0", d)
	}
}
