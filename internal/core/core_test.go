package core

import (
	"math"
	"testing"

	"vdcpower/internal/appsim"
	"vdcpower/internal/cluster"
	"vdcpower/internal/devs"
	"vdcpower/internal/mat"
	"vdcpower/internal/power"
	"vdcpower/internal/race"
	"vdcpower/internal/stats"
	"vdcpower/internal/sysid"
	"vdcpower/internal/units"
)

// fakeApp is a linear plant implementing ControlledApp: its "response
// time" follows a known ARX model of its allocations, so controller
// behavior can be verified exactly.
type fakeApp struct {
	model  *sysid.Model
	alloc  mat.Vec
	tHist  []float64
	cHist  []mat.Vec
	window []float64
}

func newFakeApp(model *sysid.Model, init mat.Vec, t0 float64) *fakeApp {
	f := &fakeApp{model: model, alloc: init.Clone()}
	for i := 0; i < model.Na; i++ {
		f.tHist = append(f.tHist, t0)
	}
	for j := 0; j < model.Nb; j++ {
		f.cHist = append(f.cHist, init.Clone())
	}
	return f
}

func (f *fakeApp) NumTiers() int { return len(f.alloc) }
func (f *fakeApp) Allocations() []float64 {
	return append([]float64(nil), f.alloc...)
}
func (f *fakeApp) SetAllocation(tier int, ghz float64) { f.alloc[tier] = ghz }

// tick advances the plant one period and fills the window with samples
// spread around the model output (so p90 ≈ output).
func (f *fakeApp) tick() {
	f.cHist = append([]mat.Vec{f.alloc.Clone()}, f.cHist...)
	if len(f.cHist) > f.model.Nb {
		f.cHist = f.cHist[:f.model.Nb]
	}
	y := f.model.Predict(f.tHist, f.cHist)
	f.tHist = append([]float64{y}, f.tHist...)
	if len(f.tHist) > f.model.Na {
		f.tHist = f.tHist[:f.model.Na]
	}
	f.window = nil
	for i := 0; i < 20; i++ {
		f.window = append(f.window, y)
	}
}

func (f *fakeApp) DrainResponseTimes() []float64 {
	w := f.window
	f.window = nil
	return w
}

func testModel() *sysid.Model {
	return &sysid.Model{
		Na: 1, Nb: 2, NumInputs: 2,
		A:     []float64{0.4},
		B:     []mat.Vec{{-0.5, -0.4}, {-0.15, -0.1}},
		Gamma: 3.0,
	}
}

func TestNewControllerValidation(t *testing.T) {
	app := newFakeApp(testModel(), mat.Vec{1, 1}, 2)
	cfg := DefaultControllerConfig(testModel(), 1.0)
	if _, err := NewResponseTimeController(nil, cfg); err == nil {
		t.Fatal("nil app accepted")
	}
	bad := cfg
	bad.Model = nil
	if _, err := NewResponseTimeController(app, bad); err == nil {
		t.Fatal("nil model accepted")
	}
	oneTier := &sysid.Model{Na: 1, Nb: 1, NumInputs: 1, A: []float64{0.5}, B: []mat.Vec{{-1}}, Gamma: 2}
	mismatch := DefaultControllerConfig(oneTier, 1.0)
	if _, err := NewResponseTimeController(app, mismatch); err == nil {
		t.Fatal("tier mismatch accepted")
	}
	neg := cfg
	neg.MinWindow = -1
	if _, err := NewResponseTimeController(app, neg); err == nil {
		t.Fatal("negative MinWindow accepted")
	}
}

func TestControllerConvergesOnLinearPlant(t *testing.T) {
	app := newFakeApp(testModel(), mat.Vec{0.5, 0.5}, 3.0)
	cfg := DefaultControllerConfig(testModel(), 1.0)
	ctl, err := NewResponseTimeController(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last StepResult
	for k := 0; k < 40; k++ {
		app.tick()
		last, err = ctl.Step()
		if err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(last.T90-1.0) > 0.05 {
		t.Fatalf("did not converge: T90 = %v", last.T90)
	}
	if ctl.Steps() != 40 {
		t.Fatalf("Steps = %d", ctl.Steps())
	}
}

func TestControllerHoldsOnEmptyWindow(t *testing.T) {
	app := newFakeApp(testModel(), mat.Vec{1, 1}, 2.0)
	cfg := DefaultControllerConfig(testModel(), 1.0)
	ctl, err := NewResponseTimeController(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No tick: window empty. The controller must hold the seed value.
	res, err := ctl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Held {
		t.Fatal("expected Held with empty window")
	}
	if res.T90 != 1.0 { // seeded at the set point
		t.Fatalf("held T90 = %v, want set point", res.T90)
	}
}

func TestControllerRespectsBounds(t *testing.T) {
	app := newFakeApp(testModel(), mat.Vec{1, 1}, 8.0)
	cfg := DefaultControllerConfig(testModel(), 1.0)
	cfg.CMax = mat.Vec{1.5, 1.5}
	ctl, err := NewResponseTimeController(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ {
		app.tick()
		res, err := ctl.Step()
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range res.Allocations {
			if a > cfg.CMax[i]+1e-9 || a < cfg.CMin[i]-1e-9 {
				t.Fatalf("step %d: allocation %v outside bounds", k, a)
			}
		}
	}
}

func TestControllerDemandsMatchApplied(t *testing.T) {
	app := newFakeApp(testModel(), mat.Vec{1, 1}, 2.0)
	ctl, err := NewResponseTimeController(app, DefaultControllerConfig(testModel(), 1.0))
	if err != nil {
		t.Fatal(err)
	}
	app.tick()
	res, err := ctl.Step()
	if err != nil {
		t.Fatal(err)
	}
	d := ctl.Demands()
	for i := range d {
		if d[i] != res.Allocations[i] {
			t.Fatalf("Demands %v != applied %v", d, res.Allocations)
		}
		if app.alloc[i] != res.Allocations[i] {
			t.Fatalf("app allocation %v != applied %v", app.alloc, res.Allocations)
		}
	}
}

func TestControllerSetpointChange(t *testing.T) {
	app := newFakeApp(testModel(), mat.Vec{1, 1}, 2.0)
	ctl, err := NewResponseTimeController(app, DefaultControllerConfig(testModel(), 1.0))
	if err != nil {
		t.Fatal(err)
	}
	ctl.SetSetpoint(1.4)
	if ctl.Setpoint() != 1.4 {
		t.Fatal("SetSetpoint failed")
	}
	for k := 0; k < 40; k++ {
		app.tick()
		if _, err := ctl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	app.tick()
	res, err := ctl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.T90-1.4) > 0.07 {
		t.Fatalf("did not track new set point: %v", res.T90)
	}
}

// End-to-end: controller on the discrete-event application simulator,
// mirroring the testbed loop of Section VII-A at small scale.
func TestControllerOnSimulatedApp(t *testing.T) {
	sim := devs.NewSimulator()
	app := appsim.New(sim, appsim.Config{
		Name: "e2e",
		Tiers: []appsim.TierConfig{
			{DemandMean: 0.025, DemandCV: 1.0, InitialAllocation: 0.6},
			{DemandMean: 0.040, DemandCV: 1.0, InitialAllocation: 0.6},
		},
		Concurrency: 40,
		ThinkTime:   1.0,
		Seed:        42,
	})
	app.Start()
	const period = 4.0

	// Identify a model by exciting the allocations over [0.4, 1.6] GHz,
	// the middle 70% of the bounds, as in Section IV-B.
	model, _, err := Identify(app, func(d units.Second) { sim.RunUntil(sim.Now() + d) }, Experiment{
		Warmup: 20, Periods: 120, Period: period, CMin: 0.143, CMax: 1.857, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultControllerConfig(model, 1.0)
	ctl, err := NewResponseTimeController(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tail []float64
	for k := 0; k < 150; k++ {
		sim.RunUntil(sim.Now() + period)
		res, err := ctl.Step()
		if err != nil {
			t.Fatal(err)
		}
		if k >= 100 {
			tail = append(tail, res.T90)
		}
	}
	mean := stats.Mean(tail)
	if math.Abs(mean-1.0) > 0.35 {
		t.Fatalf("closed loop settled at %v, want ≈1.0s", mean)
	}
}

func TestArbitratorSelectsFrequencyAndGrants(t *testing.T) {
	srv := cluster.NewServer("s", power.TypeHighEnd()) // 4 cores, 1.0..3.0
	dc, err := cluster.NewDataCenter([]*cluster.Server{srv})
	if err != nil {
		t.Fatal(err)
	}
	v1 := &cluster.VM{ID: "a", Demand: 2, MemoryGB: 1}
	v2 := &cluster.VM{ID: "b", Demand: 1.5, MemoryGB: 1}
	if err := dc.Place(v1, srv); err != nil {
		t.Fatal(err)
	}
	if err := dc.Place(v2, srv); err != nil {
		t.Fatal(err)
	}
	arb := &Arbitrator{Server: srv}
	grants, f := arb.Arbitrate()
	if f != 1.0 { // demand 3.5 ≤ 4×1.0
		t.Fatalf("f = %v, want 1.0", f)
	}
	for _, g := range grants {
		if g.Granted != g.Demand {
			t.Fatalf("grant %v != demand %v with spare capacity", g.Granted, g.Demand)
		}
	}
}

func TestArbitratorScalesDownWhenOverloaded(t *testing.T) {
	srv := cluster.NewServer("s", power.TypeMid()) // 4 GHz capacity
	dc, err := cluster.NewDataCenter([]*cluster.Server{srv})
	if err != nil {
		t.Fatal(err)
	}
	v1 := &cluster.VM{ID: "a", Demand: 3, MemoryGB: 1}
	v2 := &cluster.VM{ID: "b", Demand: 5, MemoryGB: 1}
	if err := dc.Place(v1, srv); err != nil {
		t.Fatal(err)
	}
	if err := dc.Place(v2, srv); err != nil {
		t.Fatal(err)
	}
	arb := &Arbitrator{Server: srv}
	grants, f := arb.Arbitrate()
	if f != srv.Spec.MaxFreq {
		t.Fatalf("overloaded server must run at max frequency, got %v", f)
	}
	total := 0.0
	for _, g := range grants {
		if g.Granted >= g.Demand {
			t.Fatalf("grant %v not scaled below demand %v", g.Granted, g.Demand)
		}
		total += g.Granted
	}
	if math.Abs(total-4.0) > 1e-9 {
		t.Fatalf("grants sum to %v, want capacity 4", total)
	}
	// Proportionality: 3:5 ratio preserved.
	if math.Abs(grants[0].Granted/grants[1].Granted-3.0/5.0) > 1e-9 {
		t.Fatal("grants not proportional")
	}
}

func TestArbitratorHeadroom(t *testing.T) {
	srv := cluster.NewServer("s", power.TypeHighEnd())
	dc, err := cluster.NewDataCenter([]*cluster.Server{srv})
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.Place(&cluster.VM{ID: "a", Demand: 3.9, MemoryGB: 1}, srv); err != nil {
		t.Fatal(err)
	}
	noHead := &Arbitrator{Server: srv}
	_, f := noHead.Arbitrate()
	if f != 1.0 {
		t.Fatalf("without headroom f = %v, want 1.0", f)
	}
	withHead := &Arbitrator{Server: srv, Headroom: 0.2}
	_, f = withHead.Arbitrate()
	if f != 1.5 { // 3.9×1.2 = 4.68 > 4×1.0
		t.Fatalf("with headroom f = %v, want 1.5", f)
	}
}

// TestThrottleAllocatesNothing: dcsim throttles every active server of a
// 3 000-server fleet through Throttle each step, so the untraced,
// fault-free path must stay off the heap. It picks Arbitrate's frequency
// and the scale Arbitrate's grants take.
func TestThrottleAllocatesNothing(t *testing.T) {
	srv := cluster.NewServer("s", power.TypeMid()) // 4 GHz capacity
	dc, err := cluster.NewDataCenter([]*cluster.Server{srv})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*cluster.VM{{ID: "a", Demand: 3, MemoryGB: 1}, {ID: "b", Demand: 5, MemoryGB: 1}} {
		if err := dc.Place(v, srv); err != nil {
			t.Fatal(err)
		}
	}
	arb := &Arbitrator{Server: srv, Headroom: 0.1}
	grants, want := arb.Arbitrate()
	f, scale := arb.Throttle()
	if f != want || grants[1].Granted != grants[1].Demand*scale || scale != 0.5 {
		t.Fatalf("Throttle = (%v, %v), Arbitrate chose %v and granted %+v", f, scale, want, grants)
	}
	if race.Enabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	if n := testing.AllocsPerRun(100, func() { arb.Throttle() }); n != 0 {
		t.Fatalf("Throttle allocates %v times", n)
	}
}

// windowApp lends the same response-time window every period, as
// appsim lends its drained window, so stepping a controller over it
// allocates only what the controller itself does.
type windowApp struct {
	alloc  mat.Vec
	window []float64
}

func (a *windowApp) NumTiers() int                       { return len(a.alloc) }
func (a *windowApp) Allocations() []float64              { return append([]float64(nil), a.alloc...) }
func (a *windowApp) SetAllocation(tier int, ghz float64) { a.alloc[tier] = ghz }
func (a *windowApp) DrainResponseTimes() []float64       { return a.window }

// TestWarmStepAllocatesNothing: a controller runs every control period
// for the life of the system, so once its buffers have grown a Step
// allocates nothing, closing the loop or holding it open. The percentile
// selects in storage the controller keeps, and the result's Allocations
// is a view of its history.
func TestWarmStepAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	window := make([]float64, 60)
	for i := range window {
		window[i] = 0.5 + 0.02*float64(i%17) // p90 above the set point: the MPC moves
	}
	for _, tc := range []struct {
		name      string
		minWindow int
		openLoop  bool
	}{
		{"closed loop", 5, false},
		{"open loop", len(window) + 1, true}, // every window too short: held, then open loop
	} {
		app := &windowApp{alloc: mat.Vec{1, 1}, window: window}
		cfg := DefaultControllerConfig(testModel(), 0.6)
		cfg.MinWindow = tc.minWindow
		ctl, err := NewResponseTimeController(app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var res StepResult
		step := func() {
			if res, err = ctl.Step(); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 20; k++ {
			step()
		}
		if n := testing.AllocsPerRun(100, step); n != 0 {
			t.Errorf("%s: a warmed Step allocates %v times", tc.name, n)
		}
		if res.OpenLoop != tc.openLoop || len(res.Allocations) != 2 {
			t.Errorf("%s: last step %+v", tc.name, res)
		}
	}
}

func BenchmarkControllerStep(b *testing.B) {
	app := newFakeApp(testModel(), mat.Vec{1, 1}, 2.0)
	ctl, err := NewResponseTimeController(app, DefaultControllerConfig(testModel(), 1.0))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.tick()
		if _, err := ctl.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
