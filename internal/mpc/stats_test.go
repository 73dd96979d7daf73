package mpc

import (
	"testing"

	"vdcpower/internal/mat"
)

// TestSolveStatsAccumulate pins the scorecard-facing tallies: every
// Compute counts one terminal QP solve, warm attempts start with the
// second period, and a clean run records no relaxations or fallbacks.
func TestSolveStatsAccumulate(t *testing.T) {
	ctl, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	simulate(t, ctl, plantModel(), 10, mat.Vec{1, 1}, 2.0)
	st := ctl.Stats()
	if st.Solves != 10 {
		t.Fatalf("solves = %d, want 10", st.Solves)
	}
	if st.WarmAttempts != 9 {
		t.Fatalf("warm attempts = %d, want 9", st.WarmAttempts)
	}
	if st.Relaxations != 0 || st.Fallbacks != 0 {
		t.Fatalf("clean run recorded relaxations=%d fallbacks=%d", st.Relaxations, st.Fallbacks)
	}
	hit := float64(st.WarmAttempts-st.ColdRetries) / float64(st.Solves)
	if hit <= 0.5 {
		t.Fatalf("warm hit rate %v suspiciously low for a slowly varying program", hit)
	}
}

// TestSolveStatsCountRelaxation drives the infeasible-surge path (same
// setup as TestInfeasibleSurgeRelaxesTerminal) and checks it is counted.
func TestSolveStatsCountRelaxation(t *testing.T) {
	cfg := defaultConfig()
	cfg.CMax = mat.Vec{1.2, 1.2}
	cfg.M = 1
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tHist := []float64{30.0, 30.0}
	cHist := []mat.Vec{{1.1, 1.1}, {1.1, 1.1}, {1.1, 1.1}}
	res, err := ctl.Compute(tHist, cHist)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TerminalRelaxed {
		t.Skip("surge no longer infeasible; relaxation path not exercised")
	}
	st := ctl.Stats()
	if st.Relaxations != 1 {
		t.Fatalf("relaxations = %d, want 1", st.Relaxations)
	}
	if st.Solves != 2 {
		t.Fatalf("solves = %d, want 2 (terminal + relaxed)", st.Solves)
	}
}

// TestSolveStatsDisabledWarmStart: with warm starts bypassed the QP
// tallies stay zero — documented disabled-instrument behavior.
func TestSolveStatsDisabledWarmStart(t *testing.T) {
	cfg := defaultConfig()
	cfg.DisableWarmStart = true
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	simulate(t, ctl, plantModel(), 5, mat.Vec{1, 1}, 2.0)
	st := ctl.Stats()
	if st.Solves != 0 || st.WarmAttempts != 0 {
		t.Fatalf("stats with warm start disabled = %+v, want zero QP tallies", st)
	}
}

// TestSolveStatsAdd pins the folding helper.
func TestSolveStatsAdd(t *testing.T) {
	a := SolveStats{Solves: 1, WarmAttempts: 2, ColdRetries: 3, Relaxations: 4, Fallbacks: 5}
	a.Add(SolveStats{Solves: 10, WarmAttempts: 20, ColdRetries: 30, Relaxations: 40, Fallbacks: 50})
	want := SolveStats{Solves: 11, WarmAttempts: 22, ColdRetries: 33, Relaxations: 44, Fallbacks: 55}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}
