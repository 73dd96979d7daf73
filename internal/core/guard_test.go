package core

import (
	"math"
	"testing"

	"vdcpower/internal/cluster"
	"vdcpower/internal/fault"
	"vdcpower/internal/mat"
	"vdcpower/internal/power"
)

// TestNaNMeasurementDoesNotPoisonController is the regression test for the
// measurement guard: before it, a single NaN percentile entered the ARX
// history and every subsequent MPC solve returned NaN allocations.
func TestNaNMeasurementDoesNotPoisonController(t *testing.T) {
	app := newFakeApp(testModel(), mat.Vec{1, 1}, 2.0)
	ctl, err := NewResponseTimeController(app, DefaultControllerConfig(testModel(), 1.0))
	if err != nil {
		t.Fatal(err)
	}
	app.tick()
	if _, err := ctl.Step(); err != nil {
		t.Fatal(err)
	}
	// Poison one window: every sample NaN, so the percentile is NaN.
	app.tick()
	app.window = []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	res, err := ctl.Step()
	if err != nil {
		t.Fatalf("NaN window errored instead of degrading: %v", err)
	}
	if !res.Dropped || !res.Held || res.HeldStreak != 1 {
		t.Fatalf("NaN window not dropped+held: %+v", res)
	}
	if math.IsNaN(res.T90) {
		t.Fatal("NaN leaked into the held measurement")
	}
	// The loop keeps running with finite state afterwards.
	for k := 0; k < 5; k++ {
		app.tick()
		res, err = ctl.Step()
		if err != nil {
			t.Fatalf("step %d after NaN: %v", k, err)
		}
		if res.Held {
			t.Fatalf("step %d still held after valid windows", k)
		}
		for _, a := range res.Allocations {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				t.Fatalf("step %d produced non-finite allocation %v", k, a)
			}
		}
	}
}

func TestInfMeasurementDropped(t *testing.T) {
	app := newFakeApp(testModel(), mat.Vec{1, 1}, 2.0)
	ctl, err := NewResponseTimeController(app, DefaultControllerConfig(testModel(), 1.0))
	if err != nil {
		t.Fatal(err)
	}
	app.tick()
	app.window = []float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}
	res, err := ctl.Step()
	if err != nil || !res.Dropped {
		t.Fatalf("Inf window: res=%+v err=%v", res, err)
	}
}

func TestHoldWindowThenOpenLoopThenRecovery(t *testing.T) {
	app := newFakeApp(testModel(), mat.Vec{1, 1}, 2.0)
	cfg := DefaultControllerConfig(testModel(), 1.0)
	cfg.SensorID = "App1"
	ctl, err := NewResponseTimeController(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Settle a few closed-loop periods first.
	for k := 0; k < 3; k++ {
		app.tick()
		if _, err := ctl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Total sensor blackout: every read drops.
	inj := fault.New(fault.Profile{Seed: 1, Sensor: fault.SensorProfile{DropoutProb: 1}})
	ctl.SetFaults(inj)
	var last []float64
	blackout := ctl.HoldWindow() + 2 // two open-loop periods
	for k := 0; k < blackout; k++ {
		app.tick()
		res, err := ctl.Step()
		if err != nil {
			t.Fatalf("blackout step %d: %v", k, err)
		}
		if !res.Held || !res.Dropped || res.HeldStreak != k+1 {
			t.Fatalf("blackout step %d: %+v", k, res)
		}
		wantOpen := k+1 > ctl.HoldWindow()
		if res.OpenLoop != wantOpen {
			t.Fatalf("step %d (streak %d): OpenLoop=%v, want %v", k, res.HeldStreak, res.OpenLoop, wantOpen)
		}
		if wantOpen && last != nil {
			// Open loop freezes the last-good allocation.
			for i := range res.Allocations {
				//lint:ignore floatcompare frozen allocation must be bit-identical
				if res.Allocations[i] != last[i] {
					t.Fatalf("open loop moved allocation %d: %v -> %v", i, last[i], res.Allocations[i])
				}
			}
		}
		last = append(last[:0], res.Allocations...) // a view, valid until the next Step
	}
	if inj.InjectedByKind()[fault.SensorDropout] != blackout {
		t.Fatalf("dropouts injected = %v", inj.InjectedByKind())
	}
	// Sensor returns: the streak resets and the loop closes again.
	ctl.SetFaults(nil)
	app.tick()
	res, err := ctl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Held || res.OpenLoop || res.HeldStreak != 0 {
		t.Fatalf("recovery step: %+v", res)
	}
}

func TestArbitratorDVFSDegradation(t *testing.T) {
	srv := cluster.NewServer("s1", power.TypeMid())
	dc, err := cluster.NewDataCenter([]*cluster.Server{srv})
	if err != nil {
		t.Fatal(err)
	}
	vm := &cluster.VM{ID: "v1", Demand: 0.5, MemoryGB: 1}
	if err := dc.Place(vm, srv); err != nil {
		t.Fatal(err)
	}
	a := &Arbitrator{Server: srv}
	// Healthy pass drops to the lowest covering P-state.
	if _, f := a.Arbitrate(); f != 0.8 {
		t.Fatalf("healthy freq = %v", f)
	}
	// Actuation fails while the current P-state no longer covers demand:
	// fail safe to maximum frequency, never run below demand.
	a.Faults = fault.New(fault.Profile{Seed: 1, DVFS: fault.DVFSProfile{FailProb: 1}})
	vm.Demand = 2.5
	if _, f := a.Arbitrate(); f != srv.Spec.MaxFreq {
		t.Fatalf("fail-safe freq = %v, want max %v", f, srv.Spec.MaxFreq)
	}
	// Actuation fails while the current P-state still covers demand: the
	// knob is stuck, keep it (only wastes power).
	vm.Demand = 0.5
	if _, f := a.Arbitrate(); f != srv.Spec.MaxFreq {
		t.Fatalf("stuck freq = %v, want held %v", f, srv.Spec.MaxFreq)
	}
	if a.Faults.InjectedByKind()[fault.DVFSFailure] != 2 {
		t.Fatalf("injections = %v", a.Faults.InjectedByKind())
	}
	// Degraded grants still cover the demand.
	grants, _ := a.Arbitrate()
	if len(grants) != 1 || grants[0].Granted < vm.Demand {
		t.Fatalf("grants = %+v", grants)
	}
}
