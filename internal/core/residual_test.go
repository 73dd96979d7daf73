package core

import (
	"math"
	"testing"

	"vdcpower/internal/mat"
)

// TestResidualLifecycle pins the prediction-residual contract: the first
// period has no prior prediction, a held period yields no residual, and
// once the loop converges on a perfect model the residual shrinks toward
// zero (offset-free tracking means prediction ≈ measurement at rest).
func TestResidualLifecycle(t *testing.T) {
	app := newFakeApp(testModel(), mat.Vec{0.5, 0.5}, 3.0)
	cfg := DefaultControllerConfig(testModel(), 1.0)
	ctl, err := NewResponseTimeController(app, cfg)
	if err != nil {
		t.Fatal(err)
	}

	app.tick()
	res, err := ctl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.HasResidual {
		t.Fatal("first period has no prior prediction, yet HasResidual")
	}

	var last StepResult
	for k := 0; k < 39; k++ {
		app.tick()
		last, err = ctl.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !last.HasResidual {
			t.Fatalf("period %d: valid measurement after a solve should carry a residual", k+2)
		}
	}
	if math.Abs(last.Residual) > 0.05 {
		t.Fatalf("converged residual = %v, want ~0 on a perfect model", last.Residual)
	}

	// A held period (empty window) must not fabricate a residual.
	res, err = ctl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Held || res.HasResidual {
		t.Fatalf("held period: Held=%v HasResidual=%v, want true/false", res.Held, res.HasResidual)
	}
}

// TestResidualInvalidatedByOpenLoop: once the hold window exhausts and
// the controller goes open-loop, the stale prediction must not be
// compared against the measurement that eventually returns.
func TestResidualInvalidatedByOpenLoop(t *testing.T) {
	app := newFakeApp(testModel(), mat.Vec{0.5, 0.5}, 2.0)
	ctl, err := NewResponseTimeController(app, DefaultControllerConfig(testModel(), 1.0))
	if err != nil {
		t.Fatal(err)
	}
	app.tick()
	if _, err := ctl.Step(); err != nil { // seeds a prediction
		t.Fatal(err)
	}
	sawOpenLoop := false
	for k := 0; k < 5; k++ { // empty windows until open-loop fires
		res, err := ctl.Step()
		if err != nil {
			t.Fatal(err)
		}
		sawOpenLoop = sawOpenLoop || res.OpenLoop
	}
	if !sawOpenLoop {
		t.Fatal("hold window never exhausted")
	}
	app.tick() // valid measurement returns
	res, err := ctl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Held {
		t.Fatal("measurement should be valid again")
	}
	if res.HasResidual {
		t.Fatal("residual after open-loop must be invalidated")
	}
	// The next valid period pairs with a fresh prediction again.
	app.tick()
	res, err = ctl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasResidual {
		t.Fatal("residual should resume one period after recovery")
	}
}

// TestSolveStatsDelegate: the controller surfaces its inner MPC tallies.
func TestSolveStatsDelegate(t *testing.T) {
	app := newFakeApp(testModel(), mat.Vec{0.5, 0.5}, 2.0)
	ctl, err := NewResponseTimeController(app, DefaultControllerConfig(testModel(), 1.0))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		app.tick()
		if _, err := ctl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// A relaxed period performs two QP solves, so >= periods is the bound.
	if st := ctl.SolveStats(); st.Solves < 3 {
		t.Fatalf("solves = %d, want >= 3", st.Solves)
	}
}
