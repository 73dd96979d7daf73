package appsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"vdcpower/internal/devs"
)

// queue is the surface the differential driver exercises, implemented by
// PSQueue and by the reference copy of the queue it replaced.
type queue interface {
	Submit(demand float64, done func())
	SetCapacity(capacityGHz float64)
	Pause(seconds float64)
	Capacity() float64
	Paused() bool
	Len() int
	BusyCycles() float64
}

// driveQueue applies a seeded random sequence of Submit, SetCapacity,
// Pause and drain operations to a queue on its own simulator, starting at
// virtual time t0, and returns everything observable: which job finished
// when, in order, and the queue's and kernel's state after every step.
// Demands are deterministic (cv 0, so jobs tie on vfinish) or lognormal
// with cv 1. Some jobs resubmit on completion, re-entering the queue
// from inside its completion pass.
func driveQueue(newQueue func(*devs.Simulator, float64) queue, seed int64, cv, t0 float64, ops int) []string {
	rng := rand.New(rand.NewSource(seed))
	sim := devs.NewSimulator()
	sim.RunUntil(t0)
	q := newQueue(sim, 1)
	var log []string
	const mean = 0.03
	sigma := math.Sqrt(math.Log(1 + cv*cv))
	demand := func(r *rand.Rand) float64 {
		if cv == 0 {
			return mean
		}
		return math.Exp(math.Log(mean) - sigma*sigma/2 + sigma*r.NormFloat64())
	}
	jobs := 0
	var submit func(d float64)
	submit = func(d float64) {
		id := jobs
		jobs++
		q.Submit(d, func() {
			log = append(log, fmt.Sprintf("done %d at %v", id, sim.Now()))
			if id%3 == 0 && jobs < 4000 {
				submit(demand(rand.New(rand.NewSource(int64(id)))))
			}
		})
	}
	capacities := []float64{0.25, 0.5, 1, 2.5, 0, math.NaN()}
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(10); {
		case r < 4:
			for n := 1 + rng.Intn(3); n > 0; n-- {
				submit(demand(rng))
			}
		case r < 6:
			q.SetCapacity(capacities[rng.Intn(len(capacities))])
		case r < 7:
			q.Pause(float64(rng.Intn(3)) * 0.05)
		default:
			sim.RunUntil(sim.Now() + float64(rng.Intn(6))*0.02)
		}
		log = append(log, fmt.Sprintf("now %v len %d busy %v cap %v paused %v pending %d",
			sim.Now(), q.Len(), q.BusyCycles(), q.Capacity(), q.Paused(), sim.Pending()))
	}
	sim.RunUntil(sim.Now() + 1e3)
	log = append(log, fmt.Sprintf("end %v len %d busy %v", sim.Now(), q.Len(), q.BusyCycles()))
	return log
}

// PSQueue must be observationally identical to the queue it replaced,
// including the order in which jobs with equal finish times leave.
func TestPSQueueMatchesReference(t *testing.T) {
	newQ := func(sim *devs.Simulator, c float64) queue { return NewPSQueue(sim, c) }
	refQ := func(sim *devs.Simulator, c float64) queue { return newRefPSQueue(sim, c) }
	for _, cv := range []float64{0, 1} {
		for _, t0 := range []float64{0, 1e9} {
			for seed := int64(0); seed < 60; seed++ {
				got := driveQueue(newQ, seed, cv, t0, 200)
				want := driveQueue(refQ, seed, cv, t0, 200)
				if len(got) != len(want) {
					t.Fatalf("cv %v t0 %v seed %d: %d observations, reference %d", cv, t0, seed, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("cv %v t0 %v seed %d: observation %d = %q, reference %q", cv, t0, seed, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// The driver must notice a job heap that breaks vfinish ties differently
// from container/heap.
func TestPSQueueDifferentialCatchesTieOrder(t *testing.T) {
	newQ := func(sim *devs.Simulator, c float64) queue { return &sortedQueue{NewPSQueue(sim, c)} }
	refQ := func(sim *devs.Simulator, c float64) queue { return newRefPSQueue(sim, c) }
	for seed := int64(0); seed < 20; seed++ {
		got := driveQueue(newQ, seed, 0, 0, 200)
		want := driveQueue(refQ, seed, 0, 0, 200)
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				return
			}
		}
	}
	t.Fatal("a job heap with a different tie order went unnoticed")
}

// sortedQueue re-lays its job heap out as a sorted array after every
// Submit: still a valid min-heap, but jobs with equal vfinish sit in a
// different order than container/heap would leave them.
type sortedQueue struct{ *PSQueue }

func (q *sortedQueue) Submit(demand float64, done func()) {
	q.PSQueue.Submit(demand, done)
	sort.SliceStable(q.jobs, func(i, j int) bool { return q.jobs[i].vfinish < q.jobs[j].vfinish })
}

// driveApp builds a random closed-loop application and applies a seeded
// random sequence of concurrency changes, allocation changes, demand
// changes, pauses, open-loop arrivals and period drains, returning every
// drained response time and the app's and kernel's state after each
// drain. With ref set, the requests run through refApp's closures.
func driveApp(seed int64, ref bool, ops int) []string {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{Concurrency: rng.Intn(30), ThinkTime: 0.5 + rng.Float64(), Seed: seed}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		cfg.Tiers = append(cfg.Tiers, TierConfig{
			DemandMean:        0.01 + 0.04*rng.Float64(),
			DemandCV:          float64(rng.Intn(2)),
			InitialAllocation: 0.5 + rng.Float64(),
		})
	}
	sim := devs.NewSimulator()
	a := New(sim, cfg)
	start, setConcurrency, inject := a.Start, a.SetConcurrency, a.injectRequest
	if ref {
		r := &refApp{App: a}
		start, setConcurrency, inject = r.Start, r.SetConcurrency, r.injectRequest
	}
	start()
	shrunk := false
	var log []string
	for op := 0; op < ops; op++ {
		tier := rng.Intn(a.NumTiers())
		switch r := rng.Intn(12); {
		case r < 1:
			if n := a.Concurrency(); !shrunk && rng.Intn(2) == 0 {
				setConcurrency(n + 1 + rng.Intn(10))
			} else {
				setConcurrency(rng.Intn(n + 1))
				shrunk = true
			}
		case r < 3:
			a.SetAllocation(tier, 0.2+2*rng.Float64())
		case r < 4:
			a.SetDemandMean(tier, 0.01+0.04*rng.Float64())
		case r < 5:
			a.PauseTier(tier, 0.05*float64(rng.Intn(3)))
		case r < 6:
			for n := 1 + rng.Intn(3); n > 0; n-- {
				inject()
			}
		default:
			sim.RunUntil(sim.Now() + 0.5*float64(rng.Intn(4)))
			log = append(log, fmt.Sprintf("now %v window %v completed %d in-flight %d pending %d",
				sim.Now(), a.DrainResponseTimes(), a.Completed(), a.InFlight(), sim.Pending()))
		}
	}
	return log
}

// The pooled request records must reproduce the closures they replaced
// exactly: same Schedule calls, same RNG draws, same response times.
func TestAppMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		got, want := driveApp(seed, false, 200), driveApp(seed, true, 200)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d observations, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: observation %d =\n%s\nreference\n%s", seed, i, got[i], want[i])
			}
		}
	}
}

// refSampleDemand is the per-draw lognormal formula the fitted tier
// parameters replaced: sigma and mu recomputed from the tier's mean and
// CV on every draw.
func refSampleDemand(tc TierConfig, rng *rand.Rand) float64 {
	if tc.DemandCV <= 0 {
		return tc.DemandMean
	}
	sigma := math.Sqrt(math.Log(1 + tc.DemandCV*tc.DemandCV))
	mu := math.Log(tc.DemandMean) - sigma*sigma/2
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// The fitted sampler must draw bit-identical demands to the per-draw
// formula from the same seed, across SetDemandMean changes, at CV 0 and
// 1, at an arbitrary CV, and at a CV so small its fitted sigma is 0 (a
// random tier all the same, which still draws a normal variate).
func TestSampleDemandMatchesPerDrawFormula(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		ops := rand.New(rand.NewSource(1000 + seed))
		tiers := []TierConfig{
			{DemandMean: 0.03, DemandCV: 0},
			{DemandMean: 0.02, DemandCV: 1},
			{DemandMean: 0.01 + 0.04*ops.Float64(), DemandCV: 2 * ops.Float64()},
			{DemandMean: 0.05, DemandCV: 1e-10},
		}
		a := New(devs.NewSimulator(), Config{Tiers: tiers, Seed: seed})
		ref := rand.New(rand.NewSource(seed))
		for draw := 0; draw < 2000; draw++ {
			i := ops.Intn(len(tiers))
			if ops.Intn(40) == 0 {
				mean := 0.005 + 0.1*ops.Float64()
				a.SetDemandMean(i, mean)
				tiers[i].DemandMean = mean
			}
			got, want := a.sampleDemand(i), refSampleDemand(tiers[i], ref)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d tier %d: sampled %v, per-draw formula %v", seed, draw, i, got, want)
			}
		}
	}
}
