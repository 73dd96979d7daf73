// Package mpc implements the model predictive controller of Section IV-B:
// at the end of every control period it minimizes the cost function
//
//	J(k) = Σ_{i=1..P} ‖t(k+i|k) − ref(k+i|k)‖²_Q + Σ_{i=0..M−1} ‖Δc(k+i|k)‖²_R
//
// over the input trajectory Δc, subject to the terminal constraint
// t(k+M|k) = Ts (Eq. 4) and box constraints on the absolute CPU
// allocations, where ref is the exponential reference trajectory of
// Eq. (3). Predictions come from the identified ARX model (package sysid);
// the optimization reduces to an inequality-constrained least squares
// problem solved by package mat. Only the first move is applied
// (receding horizon).
package mpc

import (
	"errors"
	"fmt"
	"math"

	"vdcpower/internal/mat"
	"vdcpower/internal/sysid"
	"vdcpower/internal/telemetry"
	"vdcpower/internal/units"
)

// Config parameterizes a controller for one application.
type Config struct {
	Model *sysid.Model

	P int // prediction horizon, in control periods
	M int // control horizon, M <= P

	Q           float64      // tracking error weight
	R           mat.Vec      // control penalty per input (length = Model.NumInputs)
	TrefPeriods float64      // reference trajectory time constant, in control periods
	Setpoint    units.Second // Ts, the desired response time (seconds)

	CMin, CMax mat.Vec     // absolute allocation bounds per input (GHz)
	DeltaMax   units.Hertz // optional per-period |Δc| bound per input; 0 = unbounded

	// LevelPenalty optionally adds a small cost on the absolute
	// allocation level above CMin, so that among the many allocations
	// achieving the set point the controller drifts to the cheapest one
	// (most CPU on the highest-gain tier). This is the economic reading
	// of the paper's remark that R can "give preference to increasing"
	// the hungrier VM; 0 disables it and reproduces the paper's cost
	// (Eq. 2) exactly.
	LevelPenalty float64

	// DisableWarmStart forces every period's QP to start from an empty
	// active set instead of the previous period's solution. The warm
	// start is equivalence-tested against this cold path (see the
	// package tests); the knob exists for those tests and debugging.
	DisableWarmStart bool
}

// Controller solves the receding-horizon problem. Callers provide the
// measurement history each period; the controller itself only carries
// solver scratch and the previous period's QP active set (the warm
// start), both of which affect performance, never results beyond
// floating-point tolerance. Compute reuses controller-owned buffers, so
// a Controller must not be shared by concurrent Compute calls.
type Controller struct {
	cfg   Config
	m     int              // number of inputs
	trace *telemetry.Track // set via SetTrace; nil keeps tracing off

	// Solver state and scratch, sized once in New so that a steady-state
	// Compute performs no heap allocation (DESIGN §12).
	ws      *mat.Workspace
	qpTerm  mat.QPState    // warm start of the terminal-constrained program
	qpRelax mat.QPState    // warm start of the relaxed program
	g       *mat.Mat       // dynamic matrix G (P×nu)
	a       *mat.Mat       // stacked least-squares rows
	b       mat.Vec        // matching right-hand side
	ref     []units.Second // reference trajectory, Eq. (3)
	free    []units.Second // free response
	resp    []units.Second // per-unknown rollout response
	unit    mat.Vec        // basis vector for superposition rollouts
	cEq     *mat.Mat       // terminal constraint row
	dEq     mat.Vec
	gIneq   *mat.Mat       // inequality geometry, fixed per Config
	hIneq   mat.Vec        // inequality rhs, refreshed per call
	delta   mat.Vec        // Result.Delta backing
	pred    []units.Second // Result.Predicted backing
	thBuf   []units.Second // rollout response-history ring
	cBuf    mat.Vec        // rollout allocation-history ring backing
	cViews  []mat.Vec      // per-step views into cBuf
	cur     mat.Vec        // rollout running allocation

	// Solve-quality tallies for the health scorecard (ints only, no
	// effect on the floating-point path).
	relaxations int // Computes that dropped the terminal constraint
	fallbacks   int // Computes that fell back to the clamped LS solve
}

// SetTrace implements telemetry.Traceable: each Compute records an
// "mpc.solve" span nesting "mpc.model_update" and "mpc.qp".
func (c *Controller) SetTrace(tk *telemetry.Track) { c.trace = tk }

// New validates the configuration and returns a controller.
func New(cfg Config) (*Controller, error) {
	if cfg.Model == nil {
		return nil, errors.New("mpc: nil model")
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	m := cfg.Model.NumInputs
	if cfg.P < 1 || cfg.M < 1 || cfg.M > cfg.P {
		return nil, fmt.Errorf("mpc: bad horizons P=%d M=%d", cfg.P, cfg.M)
	}
	if cfg.Q <= 0 {
		return nil, errors.New("mpc: Q must be positive")
	}
	if len(cfg.R) != m {
		return nil, fmt.Errorf("mpc: R has %d entries, want %d", len(cfg.R), m)
	}
	for _, r := range cfg.R {
		if r <= 0 {
			return nil, errors.New("mpc: R entries must be positive")
		}
	}
	if cfg.TrefPeriods <= 0 {
		return nil, errors.New("mpc: TrefPeriods must be positive")
	}
	if cfg.Setpoint <= 0 {
		return nil, errors.New("mpc: Setpoint must be positive")
	}
	if len(cfg.CMin) != m || len(cfg.CMax) != m {
		return nil, fmt.Errorf("mpc: bounds length mismatch (want %d)", m)
	}
	for i := range cfg.CMin {
		if cfg.CMin[i] < 0 || cfg.CMax[i] <= cfg.CMin[i] {
			return nil, fmt.Errorf("mpc: invalid bounds for input %d: [%v, %v]", i, cfg.CMin[i], cfg.CMax[i])
		}
	}

	c := &Controller{cfg: cfg, m: m}
	nu := cfg.M * m
	rows := cfg.P + nu
	if cfg.LevelPenalty > 0 {
		rows += m
	}
	c.ws = mat.NewWorkspace()
	c.g = mat.NewMat(cfg.P, nu)
	c.a = mat.NewMat(rows, nu)
	c.b = make(mat.Vec, rows)
	c.ref = make([]units.Second, cfg.P)
	c.free = make([]units.Second, cfg.P)
	c.resp = make([]units.Second, cfg.P)
	c.unit = make(mat.Vec, nu)
	c.cEq = mat.NewMat(1, nu)
	c.dEq = make(mat.Vec, 1)
	c.delta = make(mat.Vec, m)
	c.pred = make([]units.Second, cfg.P)
	c.thBuf = make([]units.Second, cfg.P+cfg.Model.Na+1)
	c.cBuf = make(mat.Vec, (cfg.P+cfg.Model.Nb)*m)
	c.cViews = make([]mat.Vec, cfg.P+cfg.Model.Nb)
	for i := range c.cViews {
		c.cViews[i] = c.cBuf[i*m : (i+1)*m]
	}
	c.cur = make(mat.Vec, m)

	// Constant pieces of the least-squares system: the sqrt(R) block
	// (its rhs stays zero — the cost penalizes the move itself) and the
	// level-penalty coefficient pattern.
	for q := 0; q < nu; q++ {
		c.a.Set(cfg.P+q, q, math.Sqrt(cfg.R[q%m]))
	}
	if cfg.LevelPenalty > 0 {
		sl := math.Sqrt(cfg.LevelPenalty)
		for i := 0; i < m; i++ {
			for l := 0; l < cfg.M; l++ {
				c.a.Set(cfg.P+nu+i, l*m+i, sl)
			}
		}
	}
	c.buildBounds()
	return c, nil
}

// Setpoint returns the configured response-time target.
func (c *Controller) Setpoint() units.Second { return c.cfg.Setpoint }

// SetSetpoint retargets the controller (used by the set-point sweep of
// Fig. 5).
func (c *Controller) SetSetpoint(ts units.Second) { c.cfg.Setpoint = ts }

// Result carries the control decision and diagnostics. Delta and
// Predicted are views into buffers owned by the Controller, valid until
// its next Compute call; callers that keep them longer must copy.
type Result struct {
	Delta     mat.Vec        // Δc(k): change to apply to each input now
	Predicted []units.Second // predicted t(k+1..k+P) under the chosen trajectory
	// TerminalRelaxed reports that the terminal constraint had to be
	// dropped to keep the problem feasible (e.g. a workload surge that
	// even maximum allocation cannot absorb within M periods).
	TerminalRelaxed bool
}

// Compute solves the receding-horizon problem. tPast[0] is the current
// measurement t(k), tPast[1] is t(k−1), and so on (at least Model.Na+1
// entries). cPast[0] is the most recently applied allocation c(k−1), etc.
// (at least Model.Nb entries).
//
//vdc:hotpath mpc/solve
func (c *Controller) Compute(tPast []units.Second, cPast []mat.Vec) (Result, error) {
	cfg := c.cfg
	if len(tPast) < cfg.Model.Na+1 {
		return Result{}, fmt.Errorf("mpc: need %d response samples, have %d", cfg.Model.Na+1, len(tPast))
	}
	if len(cPast) < cfg.Model.Nb {
		return Result{}, fmt.Errorf("mpc: need %d allocation samples, have %d", cfg.Model.Nb, len(cPast))
	}
	for _, cv := range cPast {
		if len(cv) != c.m {
			return Result{}, fmt.Errorf("mpc: allocation dimension %d, want %d", len(cv), c.m)
		}
		for _, x := range cv {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return Result{}, fmt.Errorf("mpc: non-finite allocation history %v", x)
			}
		}
	}
	// A single NaN in the regressor would propagate through every rollout
	// and poison the QP; reject it here so callers' measurement guards have
	// a hard backstop.
	for _, t := range tPast {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return Result{}, fmt.Errorf("mpc: non-finite response history %v", t)
		}
	}

	nu := cfg.M * c.m // number of unknowns
	sp := c.trace.Start("mpc.solve").Int("horizon_p", cfg.P).Int("horizon_m", cfg.M)
	mu := c.trace.Start("mpc.model_update")

	// Feedback correction (the MPC re-computation rationale of Section
	// IV-B): the constant output disturbance that reconciles the model's
	// one-step prediction with the actual measurement. Propagating it
	// through the rollout gives offset-free tracking under model
	// mismatch.
	bias := tPast[0] - cfg.Model.Predict(tPast[1:], cPast)

	// Free response and dynamic matrix by superposition: the ARX model is
	// linear, so each unknown's effect is one forward rollout.
	c.rollout(tPast, cPast, nil, bias, c.free)
	for q := 0; q < nu; q++ {
		c.unit[q] = 1
		c.rollout(tPast, cPast, c.unit, bias, c.resp)
		for i := 0; i < cfg.P; i++ {
			c.g.Set(i, q, c.resp[i]-c.free[i])
		}
		c.unit[q] = 0
	}
	mu.Float("bias", bias).End()

	// Reference trajectory, Eq. (3).
	tNow := tPast[0]
	for i := 1; i <= cfg.P; i++ {
		c.ref[i-1] = cfg.Setpoint - math.Exp(-float64(i)/cfg.TrefPeriods)*(cfg.Setpoint-tNow)
	}

	// Least-squares rows: sqrt(Q)·(G·Δ − (ref − free)), sqrt(R)·Δ, and
	// optionally sqrt(LevelPenalty)·(c_final − CMin). The sqrt(R) block
	// and the level-penalty coefficients are constant, set in New.
	sq := math.Sqrt(cfg.Q)
	for i := 0; i < cfg.P; i++ {
		for q := 0; q < nu; q++ {
			c.a.Set(i, q, sq*c.g.At(i, q))
		}
		c.b[i] = sq * (c.ref[i] - c.free[i])
	}
	if cfg.LevelPenalty > 0 {
		// Final allocation level: c(k+M−1)[i] = c0[i] + Σ_l Δ[l·m+i].
		sl := math.Sqrt(cfg.LevelPenalty)
		for i := 0; i < c.m; i++ {
			c.b[cfg.P+nu+i] = sl * (cfg.CMin[i] - cPast[0][i])
		}
	}

	// Terminal constraint (Eq. 4): t(k+M|k) = Ts.
	for q := 0; q < nu; q++ {
		c.cEq.Set(0, q, c.g.At(cfg.M-1, q))
	}
	c.dEq[0] = cfg.Setpoint - c.free[cfg.M-1]

	c.fillBounds(cPast[0])

	qp := c.trace.Start("mpc.qp").Int("unknowns", nu)
	res := Result{}
	fallback := false
	x, err := mat.InequalityLSW(c.ws, c.qpState(&c.qpTerm), c.a, c.b, c.cEq, c.dEq, c.gIneq, c.hIneq)
	if err != nil {
		// The terminal constraint can make the program infeasible under a
		// surge (the paper assumes feasibility — Section IV-A). Relax it
		// and chase the set point directly: tracking the slow exponential
		// reference would perversely hold the response time up.
		res.TerminalRelaxed = true
		c.relaxations++
		for i := 0; i < cfg.P; i++ {
			c.b[i] = sq * (cfg.Setpoint - c.free[i])
		}
		x, err = mat.InequalityLSW(c.ws, c.qpState(&c.qpRelax), c.a, c.b, nil, nil, c.gIneq, c.hIneq)
		if err != nil {
			// Last resort: unconstrained solve, then clamp the first move.
			fallback = true
			c.fallbacks++
			x, err = mat.LeastSquares(c.a, c.b)
			if err != nil {
				qp.Bool("relaxed", true).Bool("fallback", true).End()
				sp.End()
				return Result{}, fmt.Errorf("mpc: optimization failed: %w", err)
			}
			c.clampFirstMove(x, cPast[0])
		}
	}
	qp.Bool("relaxed", res.TerminalRelaxed).Bool("fallback", fallback).End()

	copy(c.delta, x[:c.m])
	res.Delta = c.delta
	c.rollout(tPast, cPast, x, bias, c.pred)
	res.Predicted = c.pred
	sp.End()
	return res, nil
}

// SolveStats summarizes a controller's QP solve history for the health
// scorecard: the warm-start tallies of both programs (terminal and
// relaxed) plus the relaxation and fallback counts. With warm starts
// disabled the QP tallies stay zero (the states are bypassed).
type SolveStats struct {
	Solves       int // QP solves attempted (both programs)
	WarmAttempts int // solves started from a previous active set
	ColdRetries  int // warm attempts that failed and were retried cold
	Relaxations  int // Computes that dropped the terminal constraint
	Fallbacks    int // Computes that fell back to the clamped LS solve
}

// Add folds o into s (for summing stats across controllers).
func (s *SolveStats) Add(o SolveStats) {
	s.Solves += o.Solves
	s.WarmAttempts += o.WarmAttempts
	s.ColdRetries += o.ColdRetries
	s.Relaxations += o.Relaxations
	s.Fallbacks += o.Fallbacks
}

// Stats returns the controller's cumulative solve tallies.
func (c *Controller) Stats() SolveStats {
	term, relax := c.qpTerm.Stats(), c.qpRelax.Stats()
	return SolveStats{
		Solves:       term.Solves + relax.Solves,
		WarmAttempts: term.WarmAttempts + relax.WarmAttempts,
		ColdRetries:  term.ColdRetries + relax.ColdRetries,
		Relaxations:  c.relaxations,
		Fallbacks:    c.fallbacks,
	}
}

// qpState returns st, or nil when warm starts are disabled.
func (c *Controller) qpState(st *mat.QPState) *mat.QPState {
	if c.cfg.DisableWarmStart {
		return nil
	}
	return st
}

// rollout simulates the ARX model P periods forward into out (length P),
// applying the feedback-correction bias at every step (and feeding
// corrected values back through the autoregression, which pins the free
// response to the measurement when the loop is at rest). delta holds the
// stacked moves (len M·m) or nil for the free response.
//
// The trajectory rings thBuf/cViews are filled backwards from index P —
// slot P+j holds history sample j, slot P−1−i holds step i's output —
// so each step's most-recent-first history for Predict is a zero-copy
// subslice instead of the old per-step prepend allocation.
func (c *Controller) rollout(tPast []units.Second, cPast []mat.Vec, delta mat.Vec, bias units.Second, out []units.Second) {
	cfg := c.cfg
	model := cfg.Model
	th := c.thBuf
	for j := 0; j <= model.Na; j++ {
		th[cfg.P+j] = tPast[j]
	}
	cv := c.cViews
	for j := 0; j < model.Nb; j++ {
		copy(cv[cfg.P+j], cPast[j])
	}
	cur := c.cur
	copy(cur, cPast[0])
	for i := 0; i < cfg.P; i++ {
		if delta != nil && i < cfg.M {
			for j := 0; j < c.m; j++ {
				cur[j] += delta[i*c.m+j]
			}
		}
		copy(cv[cfg.P-1-i], cur)
		t := model.Predict(th[cfg.P-i:], cv[cfg.P-1-i:]) + bias
		out[i] = t
		th[cfg.P-1-i] = t
	}
}

// buildBounds lays out the inequality geometry once: box constraints on
// the absolute allocations over the control horizon, plus optional
// per-move bounds. Only the right-hand side depends on the current
// allocation; fillBounds refreshes it each period. A fixed geometry is
// also what lets the QP active set warm-start across periods — row i
// means the same constraint every call.
func (c *Controller) buildBounds() {
	cfg := c.cfg
	nu := cfg.M * c.m
	rows := 2 * cfg.M * c.m
	if cfg.DeltaMax > 0 {
		rows += 2 * nu
	}
	c.gIneq = mat.NewMat(rows, nu)
	c.hIneq = make(mat.Vec, rows)
	r := 0
	for l := 0; l < cfg.M; l++ {
		for i := 0; i < c.m; i++ {
			// c(k+l)[i] = c0[i] + Σ_{q<=l} Δ[q·m+i]
			for q := 0; q <= l; q++ {
				c.gIneq.Set(r, q*c.m+i, 1)    // upper bound row
				c.gIneq.Set(r+1, q*c.m+i, -1) // lower bound row
			}
			r += 2
		}
	}
	if cfg.DeltaMax > 0 {
		for q := 0; q < nu; q++ {
			c.gIneq.Set(r, q, 1)
			c.gIneq.Set(r+1, q, -1)
			r += 2
		}
	}
}

// fillBounds refreshes the inequality right-hand side for the current
// allocation c0, matching the row order laid out by buildBounds.
func (c *Controller) fillBounds(c0 mat.Vec) {
	cfg := c.cfg
	r := 0
	for l := 0; l < cfg.M; l++ {
		for i := 0; i < c.m; i++ {
			c.hIneq[r] = cfg.CMax[i] - c0[i]
			c.hIneq[r+1] = c0[i] - cfg.CMin[i]
			r += 2
		}
	}
	if cfg.DeltaMax > 0 {
		nu := cfg.M * c.m
		for q := 0; q < nu; q++ {
			c.hIneq[r] = cfg.DeltaMax
			c.hIneq[r+1] = cfg.DeltaMax
			r += 2
		}
	}
}

// clampFirstMove forces the first move to respect the allocation box.
func (c *Controller) clampFirstMove(x mat.Vec, c0 mat.Vec) {
	for i := 0; i < c.m; i++ {
		next := c0[i] + x[i]
		if next > c.cfg.CMax[i] {
			x[i] = c.cfg.CMax[i] - c0[i]
		}
		if next < c.cfg.CMin[i] {
			x[i] = c.cfg.CMin[i] - c0[i]
		}
		if c.cfg.DeltaMax > 0 {
			if x[i] > c.cfg.DeltaMax {
				x[i] = c.cfg.DeltaMax
			}
			if x[i] < -c.cfg.DeltaMax {
				x[i] = -c.cfg.DeltaMax
			}
		}
	}
}
