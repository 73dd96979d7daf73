package mat

import (
	"errors"
	"fmt"
)

// maxActiveSetIters bounds the active-set loop. The MPC problems this
// package serves have a handful of constraints, so the bound is generous.
const maxActiveSetIters = 200

// QPState carries an active-set warm start between consecutive solves of
// a slowly varying QP: the MPC re-solves a near-identical program every
// control period, so the binding constraints rarely change and seeding
// the working set from the previous period's solution usually converges
// in one or two iterations. A zero QPState is a cold start; after each
// successful InequalityLSW call it holds the final active set.
type QPState struct {
	active []bool
	n      int // inequality count the seed was recorded for
	seeded bool

	// Solve-quality tallies (ints only — they never touch the floating
	// point path, so warm/cold bitwise equivalence is unaffected).
	solves       int // InequalityLSW calls that reached the active-set loop
	warmAttempts int // solves that started from a previous active set
	coldRetries  int // warm attempts that failed and were retried cold
}

// Warm reports whether the state holds a usable previous active set.
func (s *QPState) Warm() bool { return s != nil && s.seeded }

// QPStats summarizes a QPState's solve history. The warm-start hit rate
// is (WarmAttempts − ColdRetries) / Solves.
type QPStats struct {
	Solves       int
	WarmAttempts int
	ColdRetries  int
}

// Stats returns the accumulated solve tallies (zero for a nil state —
// e.g. when warm starting is disabled).
func (s *QPState) Stats() QPStats {
	if s == nil {
		return QPStats{}
	}
	return QPStats{Solves: s.solves, WarmAttempts: s.warmAttempts, ColdRetries: s.coldRetries}
}

// InequalityLS minimizes ||A·x − b||₂ subject to C·x = d and G·x ≤ h
// using a primal active-set method. The equality constraints stay active
// throughout; inequality rows are activated when violated and deactivated
// when their multiplier turns negative.
//
// The method assumes the problem is feasible and A has full column rank
// after the constraints are imposed, which holds for the MPC programs in
// this repository (the control-penalty term regularizes the Hessian).
//
// This is the allocating convenience form of InequalityLSW: each call
// solves cold through a fresh workspace.
func InequalityLS(a *Mat, b Vec, c *Mat, d Vec, g *Mat, h Vec) (Vec, error) {
	return InequalityLSW(NewWorkspace(), nil, a, b, c, d, g, h)
}

// InequalityLSW is InequalityLS with caller-managed solver state: w
// provides the scratch arena — the returned solution vector lives in w
// and is valid only until w's next use — and st, when non-nil, carries
// the active-set warm start across calls. A warm-started solve that
// fails (a singular working set or no convergence, possible when the
// constraint geometry shifted between periods) is retried cold before
// the error is reported; st is re-seeded only on success.
//
// The cold path (st nil or unseeded) performs exactly the same floating
// point operations as a fresh InequalityLS call, so their results are
// bitwise identical.
func InequalityLSW(w *Workspace, st *QPState, a *Mat, b Vec, c *Mat, d Vec, g *Mat, h Vec) (Vec, error) {
	if g == nil || g.Rows == 0 {
		return EqConstrainedLS(a, b, c, d)
	}
	if g.Cols != a.Cols {
		return nil, fmt.Errorf("mat: InequalityLS mismatched unknowns: A has %d, G has %d", a.Cols, g.Cols)
	}
	if len(h) != g.Rows {
		return nil, errors.New("mat: InequalityLS rhs dimension mismatch")
	}
	var active []bool
	warm := false
	if st != nil {
		if cap(st.active) < g.Rows {
			st.active = make([]bool, g.Rows)
		}
		st.active = st.active[:g.Rows]
		active = st.active
		warm = st.seeded && st.n == g.Rows
		if !warm {
			clear(active)
		}
		st.solves++
		if warm {
			st.warmAttempts++
		}
	} else {
		active = make([]bool, g.Rows)
	}
	x, err := ineqActiveSet(w, a, b, c, d, g, h, active)
	if err != nil && warm {
		// The previous period's active set can be inconsistent with the
		// new program (e.g. a surge changed which bounds bind); start
		// over from the empty working set before giving up.
		st.coldRetries++
		clear(active)
		x, err = ineqActiveSet(w, a, b, c, d, g, h, active)
	}
	if st != nil {
		st.seeded = err == nil
		st.n = g.Rows
	}
	return x, err
}

// ineqActiveSet runs the primal active-set iteration. active is both the
// starting working set and, on success, the final one. The returned
// solution lives in w.
//
// The normal-equations blocks 2AᵀA and 2Aᵀb are invariant across
// iterations, so they are built once up front — the per-iteration
// rebuild through intermediate row matrices is what used to dominate
// the mpc/solve profile.
//
//vdc:hotpath mpc/solve
func ineqActiveSet(w *Workspace, a *Mat, b Vec, c *Mat, d Vec, g *Mat, h Vec, active []bool) (Vec, error) {
	n := a.Cols
	nEq := 0
	if c != nil {
		nEq = c.Rows
	}
	w.Reset()
	ata := w.TakeMat(n, n)
	a.ATAInto(ata)
	atb := w.TakeVec(n)
	a.MulTVecInto(atb, b)
	activeIdx := w.TakeInts(g.Rows)
	const tol = 1e-9
	mark := w.Mark()
	for iter := 0; iter < maxActiveSetIters; iter++ {
		w.Release(mark)
		na := 0
		for i, on := range active {
			if on {
				activeIdx[na] = i
				na++
			}
		}
		p := nEq + na
		var x, lambda Vec
		if p == 0 {
			// Empty working set: plain least squares through QR, the
			// same route EqConstrainedLS takes without constraints.
			qr := w.QR()
			if err := qr.Factorize(a); err != nil {
				return nil, err
			}
			y := w.TakeVec(a.Rows)
			x = qr.SolveInto(w.TakeVec(n), y, b)
		} else {
			// KKT system of the working set:
			//   [ 2AᵀA  Wᵀ ] [x] = [2Aᵀb]
			//   [  W    0  ] [λ]   [ rhs ]
			// where W stacks the equality rows and the active G rows.
			dim := n + p
			kkt := w.TakeMat(dim, dim)
			rhs := w.TakeVec(dim)
			for i := 0; i < n; i++ {
				dst := kkt.Data[i*dim : i*dim+n]
				src := ata.Data[i*n : i*n+n]
				for j, v := range src {
					dst[j] = 2 * v
				}
				rhs[i] = 2 * atb[i]
			}
			for r := 0; r < p; r++ {
				var wrow []float64
				var rv float64
				if r < nEq {
					wrow = c.Data[r*n : r*n+n]
					rv = d[r]
				} else {
					gi := activeIdx[r-nEq]
					wrow = g.Data[gi*n : gi*n+n]
					rv = h[gi]
				}
				for j, v := range wrow {
					kkt.Data[(n+r)*dim+j] = v
					kkt.Data[j*dim+n+r] = v
				}
				rhs[n+r] = rv
			}
			lu := w.LU()
			if err := lu.Factorize(kkt); err != nil {
				return nil, err
			}
			sol := lu.SolveInto(w.TakeVec(dim), rhs)
			x, lambda = sol[:n], sol[n:]
		}
		// Find the most violated inactive inequality.
		worst, worstViol := -1, tol
		for i := 0; i < g.Rows; i++ {
			if active[i] {
				continue
			}
			if v := g.RowDot(i, x) - h[i]; v > worstViol {
				worst, worstViol = i, v
			}
		}
		if worst >= 0 {
			active[worst] = true
			continue
		}
		// All inequalities satisfied: check multipliers of the active set.
		drop := -1
		dropVal := -tol
		for k := 0; k < na; k++ {
			if mu := lambda[nEq+k]; mu < dropVal {
				drop, dropVal = activeIdx[k], mu
			}
		}
		if drop >= 0 {
			active[drop] = false
			continue
		}
		return x, nil
	}
	return nil, errors.New("mat: InequalityLS active-set did not converge")
}
