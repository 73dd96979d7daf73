package queueing

import (
	"math"
	"testing"
	"testing/quick"

	"vdcpower/internal/appsim"
	"vdcpower/internal/devs"
	"vdcpower/internal/stats"
)

func TestValidate(t *testing.T) {
	good := &Network{ThinkTime: 1, Demands: []float64{0.1}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*Network{
		"negative think": {ThinkTime: -1, Demands: []float64{0.1}},
		"no stations":    {ThinkTime: 1},
		"zero demand":    {ThinkTime: 1, Demands: []float64{0}},
		"nan demand":     {ThinkTime: 1, Demands: []float64{math.NaN()}},
	} {
		if err := n.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSolveSingleCustomer(t *testing.T) {
	// One customer never queues: response = sum of demands.
	net := &Network{ThinkTime: 2, Demands: []float64{0.3, 0.5}}
	r, err := Solve(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.ResponseTime-0.8) > 1e-12 {
		t.Fatalf("R = %v, want 0.8", r.ResponseTime)
	}
	wantX := 1.0 / (2 + 0.8)
	if math.Abs(r.Throughput-wantX) > 1e-12 {
		t.Fatalf("X = %v, want %v", r.Throughput, wantX)
	}
}

func TestSolveZeroPopulation(t *testing.T) {
	net := &Network{ThinkTime: 1, Demands: []float64{0.1}}
	r, err := Solve(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput != 0 {
		t.Fatalf("X = %v", r.Throughput)
	}
}

func TestSolveErrors(t *testing.T) {
	net := &Network{ThinkTime: 1, Demands: []float64{0.1}}
	if _, err := Solve(net, -1); err == nil {
		t.Fatal("negative population accepted")
	}
	if _, err := Solve(&Network{}, 1); err == nil {
		t.Fatal("invalid network accepted")
	}
}

func TestSolveMatchesKnownMM1Limit(t *testing.T) {
	// With a huge think time the station sees Poisson-like arrivals at
	// rate ≈ N/Z; utilization ρ = N·D/Z and mean response ≈ D/(1−ρ).
	net := &Network{ThinkTime: 100, Demands: []float64{0.5}}
	n := 100 // ρ ≈ 0.5
	r, err := Solve(net, n)
	if err != nil {
		t.Fatal(err)
	}
	approx := 0.5 / (1 - 0.5)
	if math.Abs(r.ResponseTime-approx)/approx > 0.1 {
		t.Fatalf("R = %v, want ≈%v", r.ResponseTime, approx)
	}
}

func TestThroughputSaturatesAtBottleneck(t *testing.T) {
	net := &Network{ThinkTime: 1, Demands: []float64{0.2, 0.05}}
	r, err := Solve(net, 200)
	if err != nil {
		t.Fatal(err)
	}
	maxX := 1 / net.Demands[0] // the bottleneck station's service rate
	if r.Throughput > maxX+1e-9 {
		t.Fatalf("X = %v exceeds bottleneck bound %v", r.Throughput, maxX)
	}
	if r.Throughput < 0.95*maxX {
		t.Fatalf("X = %v far below saturation %v at N=200", r.Throughput, maxX)
	}
}

// Property: throughput is nondecreasing and response time nondecreasing
// in the population (standard MVA monotonicity).
func TestMVAMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		d1 := 0.01 + float64(seed%97)/970.0
		d2 := 0.01 + float64(seed%53)/530.0
		net := &Network{ThinkTime: 1, Demands: []float64{d1, d2}}
		prevX, prevR := 0.0, 0.0
		for n := 1; n <= 40; n++ {
			r, err := Solve(net, n)
			if err != nil {
				return false
			}
			if r.Throughput < prevX-1e-12 || r.ResponseTime < prevR-1e-12 {
				return false
			}
			prevX, prevR = r.Throughput, r.ResponseTime
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Little's law holds at every station: Q_i = X · R_i.
func TestLittlesLawProperty(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		d := 0.02 + float64(seed%89)/890.0
		net := &Network{ThinkTime: 0.5, Demands: []float64{d, d / 2, d / 3}}
		r, err := Solve(net, 25)
		if err != nil {
			return false
		}
		for i := range net.Demands {
			if math.Abs(r.QueueLen[i]-r.Throughput*r.StationResp[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Cross-validation: the discrete-event simulator must agree with the
// exact analytical solution — the strongest correctness check available
// for the appsim substrate.
func TestSimulatorMatchesMVA(t *testing.T) {
	const (
		think = 1.0
		a1    = 1.2 // GHz web tier
		a2    = 1.5 // GHz db tier
		d1    = 0.025
		d2    = 0.040
		n     = 40
	)
	net := &Network{ThinkTime: think, Demands: []float64{d1 / a1, d2 / a2}}
	exact, err := Solve(net, n)
	if err != nil {
		t.Fatal(err)
	}

	sim := devs.NewSimulator()
	app := appsim.New(sim, appsim.Config{
		Name: "xval",
		Tiers: []appsim.TierConfig{
			// CV=1 exponential-like demands; PS is insensitive to the
			// demand distribution, so the product form applies anyway.
			{DemandMean: d1, DemandCV: 1.0, InitialAllocation: a1},
			{DemandMean: d2, DemandCV: 1.0, InitialAllocation: a2},
		},
		Concurrency: n,
		ThinkTime:   think,
		Seed:        123,
	})
	app.Start()
	sim.RunUntil(200) // warm up
	app.DrainResponseTimes()
	c0 := app.Completed()
	sim.RunUntil(1600)
	rt := app.DrainResponseTimes()
	simX := float64(app.Completed()-c0) / 1400
	simR := stats.Mean(rt)

	if math.Abs(simX-exact.Throughput)/exact.Throughput > 0.05 {
		t.Fatalf("throughput: sim %v vs MVA %v", simX, exact.Throughput)
	}
	if math.Abs(simR-exact.ResponseTime)/exact.ResponseTime > 0.08 {
		t.Fatalf("response: sim %v vs MVA %v", simR, exact.ResponseTime)
	}
}

func BenchmarkSolveN100(b *testing.B) {
	net := &Network{ThinkTime: 1, Demands: []float64{0.02, 0.04, 0.01}}
	for i := 0; i < b.N; i++ {
		if _, err := Solve(net, 100); err != nil {
			b.Fatal(err)
		}
	}
}
