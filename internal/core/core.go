// Package core wires the paper's contribution together: a per-application
// ResponseTimeController that drives the 90-percentile response time of a
// multi-tier application to its SLA set point by reallocating CPU among
// the application's VMs (Section IV), and a per-server Arbitrator that
// aggregates VM demands, grants allocations, and throttles the processor
// with DVFS (end of Section IV-B). The data-center-level optimizer lives
// in package optimizer; experiment harnesses in testbed and dcsim drive
// all three levels together as in Figure 1.
package core

import (
	"errors"
	"fmt"
	"math"

	"vdcpower/internal/cluster"
	"vdcpower/internal/fault"
	"vdcpower/internal/mat"
	"vdcpower/internal/mpc"
	"vdcpower/internal/stats"
	"vdcpower/internal/sysid"
	"vdcpower/internal/telemetry"
	"vdcpower/internal/units"
)

// holdWindow bounds how many consecutive periods the controller keeps
// closing the loop on a held (missing or rejected) measurement. Within
// the window the MPC still runs with its move damped by the hold streak;
// beyond it the controller goes open-loop, freezing the last-good
// allocation (which tracks demand — the converged MPC allocation is the
// demand-proportional fallback) until a valid measurement returns.
const holdWindow = 4

// ControlledApp is the sensor/actuator surface the response time
// controller needs from an application: in the simulated testbed it is
// *appsim.App; in a real deployment it would wrap the hypervisor's CPU
// credit scheduler and the application's access log.
type ControlledApp interface {
	// NumTiers returns the number of VMs (tiers) of the application.
	NumTiers() int
	// Allocations returns the current CPU allocation of each tier (GHz).
	Allocations() []units.Hertz
	// SetAllocation changes tier i's CPU allocation (GHz).
	SetAllocation(tier int, ghz units.Hertz)
	// DrainResponseTimes returns the response times (seconds) completed
	// since the last call and resets the window. The result may be a
	// view that is valid only until the next call; Step consumes it
	// before returning.
	DrainResponseTimes() []units.Second
}

// ControllerConfig parameterizes a response time controller.
type ControllerConfig struct {
	// Model is the identified ARX model (Eq. 1) for this application.
	Model *sysid.Model
	// Setpoint is the desired 90-percentile response time Ts in seconds.
	Setpoint units.Second
	// P and M are the prediction and control horizons.
	P, M int
	// Q is the tracking-error weight; R the per-tier control penalty.
	Q float64
	R mat.Vec
	// TrefPeriods is the reference-trajectory time constant in periods.
	TrefPeriods float64
	// CMin and CMax bound the absolute allocation of each tier (GHz).
	CMin, CMax mat.Vec
	// DeltaMax optionally bounds the per-period move (GHz); 0 = unbounded.
	DeltaMax units.Hertz
	// MinWindow is the minimum number of completed requests required to
	// trust a window's percentile; with fewer samples the controller
	// holds the previous measurement (a stalled app yields no samples).
	MinWindow int
	// SensorID scopes fault-plane sensor decisions to this controller
	// (defaults to "app"); harnesses set it to the application name.
	SensorID string
}

// DefaultControllerConfig returns the tuning used by the paper-style
// experiments for an application with the given number of tiers.
func DefaultControllerConfig(model *sysid.Model, setpoint units.Second) ControllerConfig {
	m := model.NumInputs
	uniform := func(x float64) mat.Vec {
		v := make(mat.Vec, m)
		for i := range v {
			v[i] = x
		}
		return v
	}
	return ControllerConfig{
		Model:       model,
		Setpoint:    setpoint,
		P:           8,
		M:           2,
		Q:           1,
		R:           uniform(0.05),
		TrefPeriods: 2,
		CMin:        uniform(0.1),
		CMax:        uniform(4.0),
		DeltaMax:    1.0,
		MinWindow:   5,
	}
}

// ResponseTimeController is the application-level controller of Figure 1:
// one per multi-tier application, invoked once per control period.
type ResponseTimeController struct {
	app        ControlledApp
	ctl        *mpc.Controller
	cfg        ControllerConfig
	tHist      []units.Second
	cHist      []mat.Vec
	lastT      units.Second
	steps      int
	heldStreak int              // consecutive periods without a valid measurement
	trace      *telemetry.Track // set via SetTrace; nil keeps tracing off
	faults     *fault.Injector  // set via SetFaults; nil keeps injection off

	// One-step-ahead prediction bookkeeping for the health scorecard:
	// the previous period's Predicted[0] is compared against the next
	// valid measurement to form the MPC prediction residual.
	lastPred      units.Second
	lastPredValid bool
}

// SetFaults implements fault.Injectable: measurements pass through the
// injector's sensor plane (dropouts, outliers, stuck values).
func (c *ResponseTimeController) SetFaults(in *fault.Injector) { c.faults = in }

// sensorID names this controller's sensor for fault-plane hashing.
func (c *ResponseTimeController) sensorID() string {
	if c.cfg.SensorID != "" {
		return c.cfg.SensorID
	}
	return "app"
}

// HoldWindow reports the hold window bound — harnesses feed it to the
// check package's staleness law.
func (c *ResponseTimeController) HoldWindow() int { return holdWindow }

// SetTrace implements telemetry.Traceable: each Step records a
// "core.step" span nesting "core.measure", the MPC solve, and
// "core.actuate". The inner MPC controller is wired to the same track.
func (c *ResponseTimeController) SetTrace(tk *telemetry.Track) {
	c.trace = tk
	c.ctl.SetTrace(tk)
}

// StepResult reports one control period.
type StepResult struct {
	T90             units.Second  // measured 90-percentile response time, seconds
	Samples         int           // completed requests in the window
	Held            bool          // no valid measurement: previous one held over
	Dropped         bool          // measurement rejected (NaN/Inf or injected dropout)
	HeldStreak      int           // consecutive periods without a valid measurement
	OpenLoop        bool          // hold window exhausted: last-good allocation frozen
	Allocations     []units.Hertz // allocations applied for the next period
	TerminalRelaxed bool          // MPC had to relax the terminal constraint
	// Residual is the MPC one-step prediction residual t(k) − t̂(k|k−1),
	// valid only when HasResidual: both a fresh valid measurement and a
	// previous period's prediction must exist.
	Residual    units.Second
	HasResidual bool
}

// NewResponseTimeController validates the configuration and attaches the
// controller to the application.
func NewResponseTimeController(app ControlledApp, cfg ControllerConfig) (*ResponseTimeController, error) {
	if app == nil {
		return nil, errors.New("core: nil application")
	}
	if cfg.Model == nil {
		return nil, errors.New("core: nil model")
	}
	if app.NumTiers() != cfg.Model.NumInputs {
		return nil, fmt.Errorf("core: app has %d tiers, model %d inputs", app.NumTiers(), cfg.Model.NumInputs)
	}
	if cfg.MinWindow < 0 {
		return nil, errors.New("core: negative MinWindow")
	}
	inner, err := mpc.New(mpc.Config{
		Model:       cfg.Model,
		P:           cfg.P,
		M:           cfg.M,
		Q:           cfg.Q,
		R:           cfg.R,
		TrefPeriods: cfg.TrefPeriods,
		Setpoint:    cfg.Setpoint,
		CMin:        cfg.CMin,
		CMax:        cfg.CMax,
		DeltaMax:    cfg.DeltaMax,
	})
	if err != nil {
		return nil, err
	}
	c := &ResponseTimeController{app: app, ctl: inner, cfg: cfg, lastT: cfg.Setpoint}
	// Seed histories so the first Step has a full regressor: assume the
	// loop starts at rest at the set point with the current allocations.
	cur := mat.Vec(app.Allocations()).Clone()
	for i := 0; i <= cfg.Model.Na; i++ {
		c.tHist = append(c.tHist, cfg.Setpoint)
	}
	for j := 0; j <= cfg.Model.Nb; j++ {
		c.cHist = append(c.cHist, cur.Clone())
	}
	return c, nil
}

// Setpoint returns the current response-time target.
func (c *ResponseTimeController) Setpoint() units.Second { return c.ctl.Setpoint() }

// SetSetpoint retargets the controller at run time.
func (c *ResponseTimeController) SetSetpoint(ts units.Second) { c.ctl.SetSetpoint(ts) }

// Demands returns the CPU resource demand of each tier VM in GHz — what
// the controller most recently requested. The server-level arbitrator and
// the data-center optimizer consume these (Figure 1's "CPU resource
// demands" arrows).
func (c *ResponseTimeController) Demands() []units.Hertz { return c.cHist[0].Clone() }

// Step runs one control period: read the window's 90-percentile response
// time, solve the MPC problem, and apply the first move to the
// application's VMs.
func (c *ResponseTimeController) Step() (StepResult, error) {
	period := c.trace.Start("core.step")
	measure := c.trace.Start("core.measure")
	window := c.app.DrainResponseTimes()
	res := StepResult{Samples: len(window)}
	minW := c.cfg.MinWindow
	if minW == 0 {
		minW = 1
	}
	valid := false
	if len(window) >= minW {
		t := stats.Percentile(window, 90)
		t, _ = c.faults.SensorRead(c.steps, c.sensorID(), t)
		// Measurement guard: a non-finite percentile (poisoned window,
		// injected dropout) must never enter the ARX regressor — a single
		// NaN there poisons every subsequent MPC solve. Negative values
		// pass: linear ARX plants can transiently predict them.
		if math.IsNaN(t) || math.IsInf(t, 0) {
			res.Dropped = true
		} else {
			c.lastT = t
			valid = true
			if c.lastPredValid {
				res.Residual = t - c.lastPred
				res.HasResidual = true
			}
		}
	}
	if valid {
		c.heldStreak = 0
	} else {
		res.Held = true
		c.heldStreak++
	}
	res.HeldStreak = c.heldStreak
	res.T90 = c.lastT
	measure.Int("samples", res.Samples).Float("t90", res.T90).
		Bool("held", res.Held).Bool("dropped", res.Dropped).End()

	// Shift measurement history in place (the held last-good value when
	// invalid): the window has fixed length Na+1 after construction, so an
	// overlapping copy slides it right without reallocating.
	copy(c.tHist[1:], c.tHist)
	c.tHist[0] = c.lastT

	if c.heldStreak > holdWindow {
		// Hold window exhausted: the held measurement is too stale to close
		// the loop on. Go open-loop — freeze the last-good allocation (the
		// converged MPC allocation tracks demand, so this is the
		// demand-proportional fallback) until a valid measurement returns.
		res.OpenLoop = true
		// No solve this period: the stored prediction no longer describes
		// the next measurement.
		c.lastPredValid = false
		next := c.pushAllocSlot()
		for i := range next {
			c.app.SetAllocation(i, next[i])
		}
		res.Allocations = next.Clone()
		c.steps++
		period.Bool("open_loop", true).Int("held_streak", c.heldStreak).End()
		return res, nil
	}

	out, err := c.ctl.Compute(c.tHist, c.cHist)
	if err != nil {
		c.lastPredValid = false
		period.End()
		return res, fmt.Errorf("core: control step failed: %w", err)
	}
	res.TerminalRelaxed = out.TerminalRelaxed
	c.lastPred = out.Predicted[0]
	c.lastPredValid = true

	// Damp the move while closing the loop on a held measurement: stale
	// feedback earns proportionally less authority.
	damp := 1.0
	if c.heldStreak > 0 {
		damp = 1 / float64(1+c.heldStreak)
	}

	actuate := c.trace.Start("core.actuate")
	next := c.pushAllocSlot()
	for i := range next {
		next[i] += out.Delta[i] * damp
		// Defensive clamp: the QP already enforces the box, but floating
		// point can graze it.
		if next[i] < c.cfg.CMin[i] {
			next[i] = c.cfg.CMin[i]
		}
		if next[i] > c.cfg.CMax[i] {
			next[i] = c.cfg.CMax[i]
		}
		c.app.SetAllocation(i, next[i])
	}
	actuate.Int("tiers", len(next)).End()
	res.Allocations = next.Clone()
	c.steps++
	period.Bool("relaxed", res.TerminalRelaxed).End()
	return res, nil
}

// pushAllocSlot rotates the allocation history ring: the oldest slot's
// backing array is recycled as the new head, preloaded with the previous
// head's values, and returned for in-place mutation before being read
// again. History semantics match the old prepend-and-trim exactly; only
// the storage is reused (ROADMAP item 2).
func (c *ResponseTimeController) pushAllocSlot() mat.Vec {
	last := len(c.cHist) - 1
	slot := c.cHist[last]
	copy(slot, c.cHist[0])
	copy(c.cHist[1:], c.cHist[:last])
	c.cHist[0] = slot
	return slot
}

// Steps returns the number of control periods executed.
func (c *ResponseTimeController) Steps() int { return c.steps }

// SolveStats returns the inner MPC controller's cumulative solve
// tallies (QP warm-start hit rate, relaxations, fallbacks) for the
// health scorecard.
func (c *ResponseTimeController) SolveStats() mpc.SolveStats { return c.ctl.Stats() }

// Arbitrator is the server-level CPU resource arbitrator: it collects the
// CPU demands of the VMs hosted on one server, grants allocations
// (scaling proportionally when the server is oversubscribed), and
// throttles the processor to the lowest DVFS frequency that satisfies the
// aggregate demand.
type Arbitrator struct {
	Server *cluster.Server
	// Headroom keeps a fraction of the chosen frequency's capacity free
	// when picking the P-state, absorbing intra-period bursts.
	Headroom units.Fraction
	// Trace, when non-nil, records one "arbitrator.pass" span per
	// Arbitrate call.
	Trace *telemetry.Track
	// Faults, when non-nil, can fail the DVFS actuation. The degradation
	// policy never runs the server below demand because of a failed knob:
	// the previous P-state is kept when it still covers the aggregate
	// demand, otherwise the server fails safe to maximum frequency.
	Faults *fault.Injector
}

// Grant is one VM's arbitrated allocation.
type Grant struct {
	VMID    string
	Demand  units.Hertz // requested GHz
	Granted units.Hertz // granted GHz (≤ demand when oversubscribed)
}

// Arbitrate performs one arbitration round and returns the grants plus
// the chosen frequency.
func (a *Arbitrator) Arbitrate() ([]Grant, units.Hertz) {
	f, scale := a.Throttle()
	grants := make([]Grant, 0, a.Server.NumVMs())
	for _, v := range a.Server.VMs() {
		grants = append(grants, Grant{VMID: v.ID, Demand: v.Demand, Granted: v.Demand * scale})
	}
	return grants, f
}

// Throttle is the frequency half of Arbitrate: it picks and sets the
// server's P-state for its aggregate demand and returns the frequency and
// the scale every grant takes (1 unless the demand exceeds capacity). It
// records the same "arbitrator.pass" span and allocates nothing untraced.
func (a *Arbitrator) Throttle() (units.Hertz, units.Fraction) {
	srv := a.Server
	sp := a.Trace.Start("arbitrator.pass").Str("server", srv.ID)
	total := srv.TotalDemand()
	capacity := srv.Spec.Capacity()
	scale := 1.0
	if total > capacity {
		scale = capacity / total // proportional scale-down when overloaded
	}
	f := srv.Spec.LowestFreqFor(total * (1 + a.Headroom))
	dvfsFailed := false
	if a.Faults.DVFSFails(a.Faults.Step(), srv.ID) {
		// Actuation failed. Keep the current P-state if it still covers
		// demand; otherwise fail safe to maximum frequency so a broken
		// knob can only waste power, never violate the SLA.
		dvfsFailed = true
		if srv.Spec.CapacityAt(srv.Freq()) >= total {
			f = srv.Freq()
		} else {
			f = srv.Spec.MaxFreq
		}
	}
	srv.SetFreq(f)
	sp.Int("vms", srv.NumVMs()).Float("freq_ghz", f).
		Bool("oversubscribed", scale < 1).Bool("dvfs_failed", dvfsFailed).End()
	return f, scale
}
