package mat

// Reuse-safety tests for the Workspace arena and the warm-started
// active-set QP (DESIGN §12): back-to-back solves through one
// Workspace must never leak state between calls — no stale
// factorizations, no dirty scratch, no output aliasing an input — and
// the warm-started path must agree with the cold path on the problems
// the MPC actually produces.

import (
	"math"
	"testing"
)

// qpProblem is one inequality-constrained least-squares instance.
type qpProblem struct {
	a *Mat
	b Vec
	c *Mat
	d Vec
	g *Mat
	h Vec
}

// boxQP builds a feasible n-variable problem: a diagonally dominant
// (hence full-column-rank) A, box constraints l ≤ x ≤ u expressed as
// G·x ≤ h, and an unconstrained optimum pushed outside the box so some
// constraints activate. seed varies the numbers deterministically.
func boxQP(n int, seed uint64) qpProblem {
	rnd := seed
	next := func() float64 {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return (float64(rnd>>40) / float64(1<<24)) - 0.5 // [-0.5, 0.5)
	}
	a := NewMat(n+2, n)
	for i := range a.Data {
		a.Data[i] = next()
	}
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+3)
	}
	b := make(Vec, n+2)
	for i := range b {
		b[i] = 4 * next() * float64(n)
	}
	g := NewMat(2*n, n)
	h := make(Vec, 2*n)
	for i := 0; i < n; i++ {
		u := 0.3 + math.Abs(next()) // tight box: activates constraints
		g.Set(i, i, 1)
		h[i] = u
		g.Set(n+i, i, -1)
		h[n+i] = u
	}
	return qpProblem{a: a, b: b, g: g, h: h}
}

// solveFresh is the reference: a brand-new workspace, no warm start.
func solveFresh(p qpProblem) (Vec, error) {
	return InequalityLS(p.a, p.b, p.c, p.d, p.g, p.h)
}

// qpObjective is ||A·x − b||² for comparing distinct minimizers.
func qpObjective(p qpProblem, x Vec) float64 {
	r := p.a.MulVec(x).Sub(p.b)
	return r.Dot(r)
}

func feasible(p qpProblem, x Vec, tol float64) bool {
	if p.g == nil {
		return true
	}
	for i := 0; i < p.g.Rows; i++ {
		if p.g.RowDot(i, x)-p.h[i] > tol {
			return false
		}
	}
	return true
}

// TestWorkspaceReuseMatchesFresh drives a sequence of differently shaped
// problems through ONE workspace and demands bitwise equality with fresh
// cold solves: the cold InequalityLSW path performs exactly the same
// floating-point operations as InequalityLS.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	w := NewWorkspace()
	shapes := []struct {
		n    int
		seed uint64
	}{{2, 1}, {5, 2}, {3, 3}, {5, 4}, {2, 5}, {8, 6}, {3, 7}}
	for round, s := range shapes {
		p := boxQP(s.n, s.seed)
		want, wantErr := solveFresh(p)
		got, gotErr := InequalityLSW(w, nil, p.a, p.b, p.c, p.d, p.g, p.h)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("round %d: error mismatch fresh=%v reused=%v", round, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		for i := range want {
			//lint:ignore floatcompare the cold reused path must be bitwise identical to a fresh solve
			if got[i] != want[i] {
				t.Fatalf("round %d (n=%d): x[%d] = %v, fresh %v", round, s.n, i, got[i], want[i])
			}
		}
	}
}

// TestWorkspaceNoStaleFactorization shrinks the problem between solves:
// the second solve's KKT system is strictly smaller than the first's, so
// any residue of the larger factorization (dimensions, pivots, tau)
// would corrupt it.
func TestWorkspaceNoStaleFactorization(t *testing.T) {
	w := NewWorkspace()
	big := boxQP(9, 11)
	if _, err := InequalityLSW(w, nil, big.a, big.b, nil, nil, big.g, big.h); err != nil {
		t.Fatalf("big solve failed: %v", err)
	}
	small := boxQP(2, 12)
	want, err := solveFresh(small)
	if err != nil {
		t.Fatalf("fresh small solve failed: %v", err)
	}
	got, err := InequalityLSW(w, nil, small.a, small.b, nil, nil, small.g, small.h)
	if err != nil {
		t.Fatalf("reused small solve failed: %v", err)
	}
	for i := range want {
		//lint:ignore floatcompare shrinking reuse must still be bitwise identical
		if got[i] != want[i] {
			t.Fatalf("x[%d] = %v after larger solve, fresh %v", i, got[i], want[i])
		}
	}
}

// TestWorkspaceReuseAfterError feeds a malformed problem, then a valid
// one: the failed call must not leave the workspace in a state that
// changes the next solution.
func TestWorkspaceReuseAfterError(t *testing.T) {
	w := NewWorkspace()
	p := boxQP(4, 21)
	// Mismatched rhs: rejected before any factorization.
	if _, err := InequalityLSW(w, nil, p.a, p.b, nil, nil, p.g, p.h[:1]); err == nil {
		t.Fatal("expected dimension error")
	}
	// Singular KKT mid-iteration: duplicate equality rows.
	cBad := NewMat(2, 4)
	cBad.Set(0, 0, 1)
	cBad.Set(1, 0, 1)
	dBad := Vec{1, 2} // inconsistent AND rank-deficient
	if _, err := InequalityLSW(w, nil, p.a, p.b, cBad, dBad, p.g, p.h); err == nil {
		t.Fatal("expected singular working set error")
	}
	want, err := solveFresh(p)
	if err != nil {
		t.Fatalf("fresh solve failed: %v", err)
	}
	got, err := InequalityLSW(w, nil, p.a, p.b, nil, nil, p.g, p.h)
	if err != nil {
		t.Fatalf("reused solve after errors failed: %v", err)
	}
	for i := range want {
		//lint:ignore floatcompare reuse after a failed call must be bitwise identical
		if got[i] != want[i] {
			t.Fatalf("x[%d] = %v after failed calls, fresh %v", i, got[i], want[i])
		}
	}
}

// TestWorkspaceSolveDoesNotMutateInputs clones every input, solves
// through a reused workspace twice, and verifies no input was written —
// the workspace must never alias caller memory.
func TestWorkspaceSolveDoesNotMutateInputs(t *testing.T) {
	w := NewWorkspace()
	p := boxQP(5, 31)
	aSaved, bSaved := p.a.Clone(), p.b.Clone()
	gSaved, hSaved := p.g.Clone(), p.h.Clone()
	var st QPState
	for round := 0; round < 3; round++ {
		x, err := InequalityLSW(w, &st, p.a, p.b, nil, nil, p.g, p.h)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if shareBacking(x, p.b) || shareBacking(x, p.h) {
			t.Fatal("solution aliases an input vector")
		}
		for i, v := range p.a.Data {
			//lint:ignore floatcompare the solver must not touch its inputs
			if v != aSaved.Data[i] {
				t.Fatalf("round %d: A mutated at %d", round, i)
			}
		}
		for i, v := range p.g.Data {
			//lint:ignore floatcompare the solver must not touch its inputs
			if v != gSaved.Data[i] {
				t.Fatalf("round %d: G mutated at %d", round, i)
			}
		}
		if !vecBitwiseEq(p.b, bSaved) || !vecBitwiseEq(p.h, hSaved) {
			t.Fatalf("round %d: rhs mutated", round)
		}
	}
}

func vecBitwiseEq(a, b Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//lint:ignore floatcompare bitwise comparison is the point
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// shareBacking reports whether two vectors overlap in memory.
func shareBacking(a, b Vec) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	return &a[0] == &b[0]
}

// TestWorkspaceTakeSemantics pins the arena contract: slots come back in
// call order after Reset (same backing arrays, zeroed), and Release
// rewinds to a Mark.
func TestWorkspaceTakeSemantics(t *testing.T) {
	w := NewWorkspace()
	v1 := w.TakeVec(4)
	m1 := w.TakeMat(3, 3)
	v1[0], m1.Data[0] = 7, 9
	w.Reset()
	v2 := w.TakeVec(4)
	if &v1[0] != &v2[0] {
		t.Fatal("TakeVec after Reset did not recycle the slot")
	}
	//lint:ignore floatcompare recycled slots must come back zeroed
	if v2[0] != 0 {
		t.Fatalf("recycled vector not zeroed: %v", v2[0])
	}
	m2 := w.TakeMat(3, 3)
	if &m1.Data[0] != &m2.Data[0] {
		t.Fatal("TakeMat after Reset did not recycle the slot")
	}
	//lint:ignore floatcompare recycled slots must come back zeroed
	if m2.Data[0] != 0 {
		t.Fatalf("recycled matrix not zeroed: %v", m2.Data[0])
	}

	w.Reset()
	w.TakeVec(2)
	mark := w.Mark()
	inner := w.TakeVec(6)
	w.Release(mark)
	again := w.TakeVec(6)
	if &inner[0] != &again[0] {
		t.Fatal("Release did not rewind the vector cursor")
	}

	// Growing a slot keeps later reuse consistent.
	w.Reset()
	small := w.TakeVec(2)
	w.Reset()
	grown := w.TakeVec(10)
	if len(grown) != 10 {
		t.Fatalf("grown slot has length %d", len(grown))
	}
	_ = small
	shrunk := func() Vec { w.Reset(); return w.TakeVec(3) }()
	if len(shrunk) != 3 || cap(shrunk) < 10 {
		t.Fatalf("shrunk slot len=%d cap=%d, want len 3 over the grown backing", len(shrunk), cap(shrunk))
	}
}

// TestWarmStartMatchesCold re-solves a drifting QP with a persistent
// QPState and checks each warm solution against the cold one. The warm
// path may take a different route through the active-set lattice, so the
// comparison is on optimality, not bits: same objective and feasibility
// within documented tolerance (the problems are strictly convex, so the
// minimizer is unique and both paths converge to it).
func TestWarmStartMatchesCold(t *testing.T) {
	w := NewWorkspace()
	var st QPState
	base := boxQP(6, 41)
	for period := 0; period < 25; period++ {
		p := base
		p.b = base.b.Clone()
		for i := range p.b {
			p.b[i] += 0.05 * float64(period) * float64(i%3-1) // slow drift
		}
		cold, err := solveFresh(p)
		if err != nil {
			t.Fatalf("period %d cold: %v", period, err)
		}
		warm, err := InequalityLSW(w, &st, p.a, p.b, nil, nil, p.g, p.h)
		if err != nil {
			t.Fatalf("period %d warm: %v", period, err)
		}
		if period > 0 && !st.Warm() {
			t.Fatalf("period %d: state not re-seeded", period)
		}
		if !feasible(p, warm, 1e-8) {
			t.Fatalf("period %d: warm solution infeasible", period)
		}
		oc, ow := qpObjective(p, cold), qpObjective(p, warm)
		if math.Abs(oc-ow) > 1e-8*(1+math.Abs(oc)) {
			t.Fatalf("period %d: warm objective %v, cold %v", period, ow, oc)
		}
		if d := warm.Sub(cold).Norm(); d > 1e-7 {
			t.Fatalf("period %d: minimizers differ by %v", period, d)
		}
	}
}

// TestWarmStartGeometryChangeFallsBackCold changes the inequality count
// between solves: the recorded active set no longer matches, so the next
// solve must start cold (and still be bitwise identical to fresh), then
// re-seed.
func TestWarmStartGeometryChangeFallsBackCold(t *testing.T) {
	w := NewWorkspace()
	var st QPState
	first := boxQP(5, 51)
	if _, err := InequalityLSW(w, &st, first.a, first.b, nil, nil, first.g, first.h); err != nil {
		t.Fatalf("seed solve: %v", err)
	}
	if !st.Warm() {
		t.Fatal("state not seeded after success")
	}
	second := boxQP(3, 52) // 6 inequality rows vs 10: geometry changed
	want, err := solveFresh(second)
	if err != nil {
		t.Fatalf("fresh: %v", err)
	}
	got, err := InequalityLSW(w, &st, second.a, second.b, nil, nil, second.g, second.h)
	if err != nil {
		t.Fatalf("after geometry change: %v", err)
	}
	for i := range want {
		//lint:ignore floatcompare a geometry change forces a cold start, which is bitwise identical to fresh
		if got[i] != want[i] {
			t.Fatalf("x[%d] = %v, fresh %v", i, got[i], want[i])
		}
	}
	if !st.Warm() {
		t.Fatal("state not re-seeded after the cold fallback")
	}
}

// TestWarmStartFailedSolveNotSeeded verifies a failing call clears the
// seed so the next period cannot inherit a poisoned active set.
func TestWarmStartFailedSolveNotSeeded(t *testing.T) {
	w := NewWorkspace()
	var st QPState
	p := boxQP(4, 71)
	if _, err := InequalityLSW(w, &st, p.a, p.b, nil, nil, p.g, p.h); err != nil {
		t.Fatalf("seed: %v", err)
	}
	cBad := NewMat(2, 4)
	cBad.Set(0, 0, 1)
	cBad.Set(1, 0, 1)
	if _, err := InequalityLSW(w, &st, p.a, p.b, cBad, Vec{1, 2}, p.g, p.h); err == nil {
		t.Fatal("expected failure on a rank-deficient working set")
	}
	if st.Warm() {
		t.Fatal("state still seeded after a failed solve")
	}
}
