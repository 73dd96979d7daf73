package mpc

// Warm-start equivalence (DESIGN §12): a controller reusing the
// previous period's active set must produce the same closed-loop moves
// as one that starts every QP cold. The programs are strictly convex
// (R > 0), so the minimizer is unique and the two paths may differ only
// by solver round-off; 1e-8 absolute on a ~1 GHz scale is the documented
// tolerance.

import (
	"math"
	"testing"

	"vdcpower/internal/mat"
)

// TestWarmStartMatchesColdClosedLoop runs warm and cold controllers side
// by side through 100 periods of the perfect-model loop, including a
// mid-run surge that forces the infeasible-terminal fallback (relaxed
// QP) on both: the warm controller must track the cold one before,
// during, and — critically — after the fallback, when its stored active
// set comes from a differently shaped program.
func TestWarmStartMatchesColdClosedLoop(t *testing.T) {
	cfg := defaultConfig()
	cfg.CMax = mat.Vec{1.5, 1.5} // tight enough that the surge is infeasible
	cold := cfg
	cold.DisableWarmStart = true
	ctlWarm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctlCold, err := New(cold)
	if err != nil {
		t.Fatal(err)
	}

	model := plantModel()
	tHist := []float64{3.0, 3.0}
	cHist := []mat.Vec{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}
	cur := mat.Vec{0.5, 0.5}
	relaxedSeen := false
	for k := 0; k < 100; k++ {
		resW, errW := ctlWarm.Compute(tHist, cHist)
		resC, errC := ctlCold.Compute(tHist, cHist)
		if errW != nil || errC != nil {
			t.Fatalf("period %d: warm err %v, cold err %v", k, errW, errC)
		}
		if resW.TerminalRelaxed != resC.TerminalRelaxed {
			t.Fatalf("period %d: relaxed disagrees (warm %v, cold %v)",
				k, resW.TerminalRelaxed, resC.TerminalRelaxed)
		}
		relaxedSeen = relaxedSeen || resW.TerminalRelaxed
		for i := range resC.Delta {
			if math.Abs(resW.Delta[i]-resC.Delta[i]) > 1e-8 {
				t.Fatalf("period %d tier %d: warm Δ %v, cold Δ %v",
					k, i, resW.Delta[i], resC.Delta[i])
			}
		}
		// Advance the plant with the cold move so both controllers keep
		// seeing identical histories.
		cur = cur.Add(resC.Delta)
		cHist = append([]mat.Vec{cur.Clone()}, cHist...)[:3]
		y := model.Predict(tHist, cHist)
		if k >= 40 && k < 43 {
			y = 30 // measurement surge: terminal equality turns infeasible
		}
		tHist = append([]float64{y}, tHist...)[:2]
	}
	if !relaxedSeen {
		t.Fatal("test never exercised the infeasible-terminal fallback")
	}
}

// TestWarmStartRepeatedSolveIdentical solves the identical program twice
// through one controller: with an unchanged program the warm start must
// converge to exactly the same answer (same active set, same KKT system,
// same floating-point operations).
func TestWarmStartRepeatedSolveIdentical(t *testing.T) {
	ctl, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tHist := []float64{2.0, 2.0}
	cHist := []mat.Vec{{1, 1}, {1, 1}}
	first, err := ctl.Compute(tHist, cHist)
	if err != nil {
		t.Fatal(err)
	}
	d0 := first.Delta.Clone()
	second, err := ctl.Compute(tHist, cHist)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d0 {
		//lint:ignore floatcompare an unchanged program re-solved warm must reproduce its answer exactly
		if second.Delta[i] != d0[i] {
			t.Fatalf("tier %d: second solve Δ %v, first %v", i, second.Delta[i], d0[i])
		}
	}
}

// TestResultViewsInvalidatedByNextCompute pins the documented ownership:
// Result.Delta and Result.Predicted are views into controller-owned
// buffers, overwritten by the next Compute. Callers that keep them must
// Clone — the test demonstrates the overwrite is real, not theoretical.
func TestResultViewsInvalidatedByNextCompute(t *testing.T) {
	ctl, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	resA, err := ctl.Compute([]float64{3, 3}, []mat.Vec{{0.5, 0.5}, {0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	saved := resA.Delta.Clone()
	if _, err := ctl.Compute([]float64{1, 1}, []mat.Vec{{2, 2.2}, {2, 2.2}}); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range saved {
		//lint:ignore floatcompare detecting buffer reuse is the point
		if resA.Delta[i] != saved[i] {
			same = false
		}
	}
	if same {
		t.Skip("second solve produced the same move; reuse not observable here")
	}
}
