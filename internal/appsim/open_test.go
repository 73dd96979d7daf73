package appsim

import (
	"math"
	"slices"
	"testing"

	"vdcpower/internal/devs"
	"vdcpower/internal/stats"
)

func openApp(sim *devs.Simulator, alloc float64, seed int64) *App {
	return New(sim, Config{
		Name: "open",
		Tiers: []TierConfig{
			{DemandMean: 0.020, DemandCV: 1.0, InitialAllocation: alloc},
		},
		Concurrency: 0, // no closed clients
		ThinkTime:   1.0,
		Seed:        seed,
	})
}

func TestOpenWorkloadGeneratesTraffic(t *testing.T) {
	sim := devs.NewSimulator()
	app := openApp(sim, 1.0, 1)
	app.Start()
	src := NewOpenWorkload(app, 20, 2)
	src.Start()
	src.Start() // idempotent
	sim.RunUntil(100)
	// ≈ 2000 completions expected.
	if c := app.Completed(); c < 1700 || c > 2300 {
		t.Fatalf("completed %d, want ≈2000", c)
	}
}

func TestOpenWorkloadStop(t *testing.T) {
	sim := devs.NewSimulator()
	app := openApp(sim, 1.0, 3)
	src := NewOpenWorkload(app, 50, 4)
	src.Start()
	sim.RunUntil(20)
	src.Stop()
	drained := sim.Now() + 10
	sim.RunUntil(drained)
	app.DrainResponseTimes()
	before := app.Completed()
	sim.RunUntil(drained + 50)
	if app.Completed() != before {
		t.Fatal("arrivals continued after Stop")
	}
}

func TestOpenWorkloadSetRate(t *testing.T) {
	sim := devs.NewSimulator()
	app := openApp(sim, 2.0, 5)
	src := NewOpenWorkload(app, 5, 6)
	src.Start()
	sim.RunUntil(100)
	low := app.Completed()
	src.SetRate(50)
	sim.RunUntil(200)
	high := app.Completed() - low
	if high < 5*low {
		t.Fatalf("rate change ineffective: %d then %d", low, high)
	}
	if src.Rate() != 50 {
		t.Fatalf("Rate = %v", src.Rate())
	}
}

func TestOpenWorkloadValidation(t *testing.T) {
	sim := devs.NewSimulator()
	app := openApp(sim, 1.0, 7)
	for _, f := range []func(){
		func() { NewOpenWorkload(app, 0, 1) },
		func() { NewOpenWorkload(app, -3, 1) },
		func() { NewOpenWorkload(app, 1, 1).SetRate(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// The virtual-time PS implementation must stay cheap even when an open
// workload runs past its stability limit and the queue grows without
// bound (the naive O(n)-per-event formulation turns quadratic here).
func TestOverloadedOpenQueueStaysFast(t *testing.T) {
	sim := devs.NewSimulator()
	q := NewPSQueue(sim, 0.1) // tiny capacity
	// 20,000 jobs of 1 GHz·s each: the queue only drains ~0.1·3600 GHz·s
	// in an hour, so most jobs pile up.
	for i := 0; i < 20000; i++ {
		at := float64(i) * 0.01
		sim.Schedule(at, func() { q.Submit(1.0, func() {}) })
	}
	sim.RunUntil(3600)
	if q.Len() < 15000 {
		t.Fatalf("queue drained implausibly: %d left", q.Len())
	}
	// Reaching here quickly is the assertion; the old implementation
	// needed minutes for this scenario.
}

func BenchmarkPSQueueHeavyBacklog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := devs.NewSimulator()
		q := NewPSQueue(sim, 1.0)
		for j := 0; j < 5000; j++ {
			at := float64(j) * 0.001
			sim.Schedule(at, func() { q.Submit(0.5, func() {}) })
		}
		sim.RunUntil(600)
	}
}

// M/G/1-PS theory: with Poisson arrivals at rate λ into a PS station
// with mean service time s, the mean sojourn time is s/(1−ρ) regardless
// of the service distribution (PS insensitivity). The simulator must
// reproduce this.
func TestOpenWorkloadMatchesMG1PS(t *testing.T) {
	const (
		alloc  = 1.0
		demand = 0.020 // GHz·s → s = 20 ms at 1 GHz
		lambda = 30.0  // ρ = 0.6
	)
	for _, cv := range []float64{0.5, 1.0, 2.0} {
		sim := devs.NewSimulator()
		app := New(sim, Config{
			Name: "mg1",
			Tiers: []TierConfig{
				{DemandMean: demand, DemandCV: cv, InitialAllocation: alloc},
			},
			Concurrency: 0,
			ThinkTime:   1.0,
			Seed:        11,
		})
		src := NewOpenWorkload(app, lambda, 13)
		src.Start()
		sim.RunUntil(500) // warm up
		app.DrainResponseTimes()
		sim.RunUntil(4500)
		mean := stats.Mean(app.DrainResponseTimes())
		rho := lambda * demand / alloc
		want := (demand / alloc) / (1 - rho)
		if math.Abs(mean-want)/want > 0.08 {
			t.Fatalf("cv=%v: mean sojourn %v, M/G/1-PS predicts %v", cv, mean, want)
		}
	}
}

// An open workload on an application in a domain, drained through the
// parent, queues its arrivals with the application's tiers: it gives
// the same response times as on a standalone simulator, alongside a
// closed application in a sibling domain.
func TestOpenWorkloadInDomainMatchesStandalone(t *testing.T) {
	run := func(sim, drain *devs.Simulator) []float64 {
		app := openApp(sim, 1.0, 21)
		NewOpenWorkload(app, 30, 22).Start()
		var rts []float64
		for k := 1; k <= 50; k++ {
			drain.RunUntil(float64(k) * 4)
			rts = append(rts, app.DrainResponseTimes()...)
		}
		return rts
	}
	standalone := devs.NewSimulator()
	want := run(standalone, standalone)
	parent := devs.NewSimulator()
	sibling := New(parent.NewDomain(), Config{
		Name:        "closed",
		Tiers:       []TierConfig{{DemandMean: 0.03, DemandCV: 1, InitialAllocation: 1}},
		Concurrency: 20,
		Seed:        23,
	})
	sibling.Start()
	got := run(parent.NewDomain(), parent)
	if len(want) < 5000 || !slices.Equal(got, want) {
		t.Fatalf("in a domain: %d response times, standalone %d; equal %v", len(got), len(want), slices.Equal(got, want))
	}
	if sibling.Completed() == 0 {
		t.Fatal("the sibling domain never ran")
	}
}
