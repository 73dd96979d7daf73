package core

import (
	"math"
	"testing"

	"vdcpower/internal/mat"
	"vdcpower/internal/sysid"
)

func TestSetModelValidation(t *testing.T) {
	app := newFakeApp(testModel(), mat.Vec{1, 1}, 2)
	ctl, err := NewResponseTimeController(app, DefaultControllerConfig(testModel(), 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.SetModel(nil); err == nil {
		t.Fatal("nil model accepted")
	}
	wrongInputs := &sysid.Model{Na: 1, Nb: 2, NumInputs: 3,
		A: []float64{0.3}, B: []mat.Vec{{-1, -1, -1}, {-0.1, -0.1, -0.1}}, Gamma: 2}
	if err := ctl.SetModel(wrongInputs); err == nil {
		t.Fatal("input mismatch accepted")
	}
	higherOrder := &sysid.Model{Na: 3, Nb: 2, NumInputs: 2,
		A: []float64{0.2, 0.1, 0.05}, B: []mat.Vec{{-1, -1}, {-0.1, -0.1}}, Gamma: 2}
	if err := ctl.SetModel(higherOrder); err == nil {
		t.Fatal("higher-order model accepted")
	}
	ok := testModel()
	ok.A[0] = 0.3
	if err := ctl.SetModel(ok); err != nil {
		t.Fatal(err)
	}
}

func TestSetModelKeepsLoopWorking(t *testing.T) {
	app := newFakeApp(testModel(), mat.Vec{0.5, 0.5}, 3.0)
	ctl, err := NewResponseTimeController(app, DefaultControllerConfig(testModel(), 1.0))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		app.tick()
		if _, err := ctl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctl.SetModel(testModel()); err != nil {
		t.Fatal(err)
	}
	var last StepResult
	for k := 0; k < 30; k++ {
		app.tick()
		if last, err = ctl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(last.T90-1.0) > 0.05 {
		t.Fatalf("loop broken after SetModel: %v", last.T90)
	}
}

func TestAdaptiveControllerValidation(t *testing.T) {
	app := newFakeApp(testModel(), mat.Vec{1, 1}, 2)
	mutations := map[string]func(*AdaptiveConfig){
		"RefitEvery 0":      func(c *AdaptiveConfig) { c.RefitEvery = 0 },
		"MinSamples 0":      func(c *AdaptiveConfig) { c.MinSamples = 0 },
		"window < samples":  func(c *AdaptiveConfig) { c.WindowSize = c.MinSamples - 1 },
		"ridge 0":           func(c *AdaptiveConfig) { c.Ridge = 0 },
		"improve factor 0":  func(c *AdaptiveConfig) { c.ImproveFactor = 0 },
		"improve factor >1": func(c *AdaptiveConfig) { c.ImproveFactor = 1.5 },
	}
	for name, mutate := range mutations {
		cfg := DefaultAdaptiveConfig(DefaultControllerConfig(testModel(), 1.0))
		mutate(&cfg)
		if _, err := NewAdaptiveController(app, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestAdaptiveControllerRefitsUnderDrift(t *testing.T) {
	// The controller starts with testModel but the plant's gains are 3×
	// stronger. The windowed refit must re-identify and swap models, and the loop
	// must hold the set point.
	plant := &sysid.Model{
		Na: 1, Nb: 2, NumInputs: 2,
		A:     []float64{0.4},
		B:     []mat.Vec{{-1.5, -1.2}, {-0.45, -0.3}},
		Gamma: 6.0,
	}
	app := newFakeApp(plant, mat.Vec{0.5, 0.5}, 3.0)
	cfg := DefaultAdaptiveConfig(DefaultControllerConfig(testModel(), 1.0))
	ac, err := NewAdaptiveController(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, n := 0.0, 0
	for k := 0; k < 80; k++ {
		app.tick()
		res, err := ac.Step()
		if err != nil {
			t.Fatal(err)
		}
		if k >= 60 { // average over the dither wobble
			sum += res.T90
			n++
		}
	}
	if ac.Refits() == 0 {
		t.Fatal("adaptive controller never refit")
	}
	if mean := sum / float64(n); math.Abs(mean-1.0) > 0.15 {
		t.Fatalf("adaptive loop settled at %v", mean)
	}
	// The swapped-in model should be close to the true plant.
	got := ac.Ctl.cfg.Model
	if math.Abs(got.B[0][0]-plant.B[0][0]) > 0.3 {
		t.Fatalf("re-identified B[0][0] = %v, want ≈%v", got.B[0][0], plant.B[0][0])
	}
}

func TestCredibleRejectsBadModels(t *testing.T) {
	unstable := testModel()
	unstable.A = []float64{1.5}
	if credible(unstable) {
		t.Fatal("unstable model credible")
	}
	positive := testModel()
	positive.B = []mat.Vec{{0.5, 0.4}, {0.15, 0.1}}
	if credible(positive) {
		t.Fatal("positive-gain model credible")
	}
	malformed := testModel()
	malformed.A = nil
	if credible(malformed) {
		t.Fatal("malformed model credible")
	}
	if !credible(testModel()) {
		t.Fatal("good model rejected")
	}
}
