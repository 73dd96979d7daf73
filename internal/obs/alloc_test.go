package obs

import (
	"testing"

	"vdcpower/internal/check"
	"vdcpower/internal/guard"
	"vdcpower/internal/mpc"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/race"
)

// requireZeroAllocs runs fn through testing.AllocsPerRun after a short
// warm-up and fails if steady-state observation touches the heap — the
// PR 7 hot-path discipline applied to the obs layer.
func requireZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation gate not meaningful under -race")
	}
	for i := 0; i < 5; i++ {
		fn()
	}
	if avg := testing.AllocsPerRun(200, fn); avg != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, avg)
	}
}

func TestSketchObserveZeroAlloc(t *testing.T) {
	s := NewSketch()
	v := 0.001
	requireZeroAllocs(t, "Sketch.Observe", func() {
		s.Observe(v)
		v *= 1.0001
	})
}

func TestSketchMergeZeroAlloc(t *testing.T) {
	dst, src := NewSketch(), NewSketch()
	for i := 0; i < 100; i++ {
		src.Observe(float64(i + 1))
	}
	requireZeroAllocs(t, "Sketch.Merge", func() { dst.Merge(src) })
}

func TestSLOObserveZeroAlloc(t *testing.T) {
	s := newSLO(1, 0.1, 12, 96)
	i := 0
	requireZeroAllocs(t, "SLO.Observe", func() {
		s.Observe(i%7 != 0)
		i++
	})
}

func TestAuditRecordZeroAlloc(t *testing.T) {
	a := newAudit(16)
	// Fill the ring first: steady state is slot reuse, not append growth.
	for i := 0; i < 16; i++ {
		a.Record(Decision{Component: "x", Action: "y", Reason: "z"})
	}
	d := Decision{Step: 1, Component: "pac", Action: "server-off", Reason: "packed"}
	requireZeroAllocs(t, "Audit.Record", func() { a.Record(d) })
}

// Every fact a steady-state period emits folds without allocating: the
// step, control, drain and breaker facts, and a pass that switched no
// server.
func TestScorecardHotPathsZeroAlloc(t *testing.T) {
	s := New(Config{})
	initApps(s, 1.0, "app")
	pass := &optimizer.Report{Migrations: 1}
	i := 0
	requireZeroAllocs(t, "Scorecard hot updates", func() {
		s.Observe(check.Event{Kind: check.EvGuard, Guard: check.GuardObservation{Events: 100 + i%50, SameTime: i % 9}})
		s.Observe(check.Event{Kind: check.EvControl, Control: check.ControlObservation{App: "app", T90: 0.5 + 0.001*float64(i%100),
			Held: i%9 == 0, HeldStreak: i % 9, Residual: 0.01 * float64(i%5), HasResidual: true}})
		s.Observe(check.Event{Kind: check.EvStep, SLOMet: i%11 != 0, HasSLO: true, PowerW: 900 + float64(i%13), HasPower: true,
			Solve: mpc.SolveStats{Solves: i + 1}})
		s.Observe(check.Event{Kind: check.EvConsolidate, Policy: "IPAC", Report: pass, Nodes: i % 7})
		s.Observe(check.Event{Kind: check.EvBreaker, Breaker: check.BreakerObservation{State: guard.Closed, Prev: guard.Closed}})
		i++
	})
}
