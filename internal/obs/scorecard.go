package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"vdcpower/internal/trace"
)

// Defaults applied by New when Config leaves the knobs zero.
const (
	defaultSLOBudget     = 0.1 // 10% of steps may violate the objective
	defaultFastWindow    = 12  // fast burn window, in steps/periods
	defaultSlowWindow    = 96  // slow burn window
	defaultAuditCapacity = 256
)

// Config parameterizes a Scorecard. The zero value is usable: New fills
// the SLO budget, burn windows, and audit capacity with the defaults
// above. SLOTargetSec is informational (the response-time R_ref the
// per-app violation counts are judged against is given per app in
// RegisterApp); 0 marks an objective that is not a response time, e.g.
// dcsim's "no server overloaded this step".
type Config struct {
	Label         string  // run label carried into the report
	SLOTargetSec  float64 // R_ref in seconds; 0 = not a response-time SLO
	SLOBudget     float64 // allowed bad-event fraction (default 0.1)
	FastWindow    int     // fast burn window in steps (default 12)
	SlowWindow    int     // slow burn window in steps (default 96)
	AuditCapacity int     // decision ring bound (default 256)
}

// withDefaults resolves the zero knobs.
func (c Config) withDefaults() Config {
	if c.SLOBudget <= 0 {
		c.SLOBudget = defaultSLOBudget
	}
	if c.FastWindow <= 0 {
		c.FastWindow = defaultFastWindow
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = defaultSlowWindow
	}
	if c.AuditCapacity <= 0 {
		c.AuditCapacity = defaultAuditCapacity
	}
	return c
}

// appHealth is one registered application's health slice.
type appHealth struct {
	name       string
	rref       float64
	samples    uint64
	violations uint64
	resp       *Sketch
}

// Scorecard aggregates one control loop's health: MPC solve quality
// (prediction residuals, QP warm-start hit rate, relaxations and
// fallbacks), measurement-plane degradation (hold windows, open-loop
// activations), breaker state, optimizer effort (passes, migrations,
// vetoes, B&B nodes and widenings), cluster faults, per-app response
// time versus R_ref, and the SLO burn state — plus the decision audit
// ring. It is single-writer (harnesses own it; serve serializes under
// its mutex), every method is nil-safe, and the hot update paths
// (ObserveStep, ObserveResponse, ObserveSLO, ObservePower, RecordControl,
// ObserveResidual) are allocation-free in steady state. Merge combines
// per-worker scorecards exactly, in any order.
type Scorecard struct {
	cfg   Config
	steps uint64

	// MPC solve quality (cumulative; SetMPC overwrites).
	qpSolves     int
	warmAttempts int
	coldRetries  int
	relaxations  int
	fallbacks    int
	residual     *Sketch

	// Measurement-plane control health.
	periods       uint64
	held          uint64
	dropped       uint64
	openLoop      uint64
	maxHeldStreak int

	// Circuit breaker (serve).
	breakerState    string
	breakerCooldown int
	breakerTrans    uint64

	// Optimizer effort.
	passes         int
	migrations     int
	vetoes         int
	failedMoves    int
	unresolved     int
	watchdogPasses int
	watchdogMoves  int
	degradedPasses int
	bnbNodes       int
	widenings      int

	// Cluster fault plane.
	crashes      int
	vmsEvacuated int
	vmsLost      int

	// Bounded execution (guard layer).
	drains         uint64
	budgetTrips    uint64
	wallTrips      uint64
	quarantines    uint64
	maxDrainEvents int
	maxSameTime    int

	apps   []appHealth
	power  *Sketch
	slo    *SLO
	audit  *Audit
	replay *trace.Provenance
}

// New builds an empty scorecard with cfg's knobs (defaults applied).
func New(cfg Config) *Scorecard {
	cfg = cfg.withDefaults()
	return &Scorecard{
		cfg:          cfg,
		residual:     NewSketch(),
		power:        NewSketch(),
		slo:          newSLO(cfg.SLOTargetSec, cfg.SLOBudget, cfg.FastWindow, cfg.SlowWindow),
		audit:        newAudit(cfg.AuditCapacity),
		breakerState: "closed",
	}
}

// Config returns the effective configuration (defaults resolved) — the
// recipe for building merge-compatible sibling scorecards.
func (s *Scorecard) Config() Config {
	if s == nil {
		return Config{}.withDefaults()
	}
	return s.cfg
}

// RegisterApp adds an application with its response-time target R_ref
// and returns its index for the hot ObserveResponse path. Registration
// order is the report order, so callers must register deterministically
// (and must do so before observing).
func (s *Scorecard) RegisterApp(name string, rrefSec float64) int {
	if s == nil {
		return -1
	}
	s.apps = append(s.apps, appHealth{name: name, rref: rrefSec, resp: NewSketch()})
	return len(s.apps) - 1
}

// ObserveStep counts one harness step (trace step in dcsim, control
// period in testbed/serve).
//
//vdc:hotpath fig6/obs-on
func (s *Scorecard) ObserveStep() {
	if s == nil {
		return
	}
	s.steps++
}

// ObserveResponse records app's measured response time for one period:
// the per-app sketch, the violation count against its R_ref, and one
// SLO event (good = within target).
//
//vdc:hotpath fig6/obs-on
func (s *Scorecard) ObserveResponse(app int, tSec float64) {
	if s == nil || app < 0 || app >= len(s.apps) {
		return
	}
	a := &s.apps[app]
	a.samples++
	a.resp.Observe(tSec)
	good := tSec <= a.rref
	if !good {
		a.violations++
	}
	s.slo.Observe(good)
}

// ObserveSLO records one generic SLO event for harnesses whose
// objective is not a per-app response time (dcsim: good = no server
// overloaded this step).
//
//vdc:hotpath fig6/obs-on
func (s *Scorecard) ObserveSLO(good bool) {
	if s == nil {
		return
	}
	s.slo.Observe(good)
}

// ObservePower records one step's total power draw (watts).
//
//vdc:hotpath fig6/obs-on
func (s *Scorecard) ObservePower(w float64) {
	if s == nil {
		return
	}
	s.power.Observe(w)
}

// RecordControl folds one controller period's measurement-plane flags.
//
//vdc:hotpath fig6/obs-on
func (s *Scorecard) RecordControl(held, dropped, openLoop bool, heldStreak int) {
	if s == nil {
		return
	}
	s.periods++
	if held {
		s.held++
	}
	if dropped {
		s.dropped++
	}
	if openLoop {
		s.openLoop++
	}
	if heldStreak > s.maxHeldStreak {
		s.maxHeldStreak = heldStreak
	}
}

// ObserveResidual records one MPC prediction residual |t(k) − t̂(k|k−1)|.
//
//vdc:hotpath fig6/obs-on
func (s *Scorecard) ObserveResidual(r float64) {
	if s == nil {
		return
	}
	s.residual.Observe(math.Abs(r))
}

// SetMPC overwrites the cumulative MPC solver tallies (harnesses read
// them from mpc.SolveStats each period; the stats are themselves
// cumulative, so set semantics avoid double counting).
func (s *Scorecard) SetMPC(solves, warmAttempts, coldRetries, relaxations, fallbacks int) {
	if s == nil {
		return
	}
	s.qpSolves = solves
	s.warmAttempts = warmAttempts
	s.coldRetries = coldRetries
	s.relaxations = relaxations
	s.fallbacks = fallbacks
}

// RecordBreaker publishes the breaker's current state, by name ("closed"
// until the first call), and remaining cooldown ticks; a state change
// counts one transition.
func (s *Scorecard) RecordBreaker(state string, cooldownTicks int) {
	if s == nil {
		return
	}
	if state != s.breakerState {
		s.breakerTrans++
	}
	s.breakerState = state
	s.breakerCooldown = cooldownTicks
}

// AddOptimizerPass folds one consolidation pass's report.
func (s *Scorecard) AddOptimizerPass(migrations, vetoed, failedMoves, unresolved int, degraded bool) {
	if s == nil {
		return
	}
	s.passes++
	s.migrations += migrations
	s.vetoes += vetoed
	s.failedMoves += failedMoves
	s.unresolved += unresolved
	if degraded {
		s.degradedPasses++
	}
}

// AddWatchdogPass folds one on-demand overload-relief pass.
func (s *Scorecard) AddWatchdogPass(moves, failedMoves, unresolved int, degraded bool) {
	if s == nil {
		return
	}
	s.watchdogPasses++
	s.migrations += moves
	s.watchdogMoves += moves
	s.failedMoves += failedMoves
	s.unresolved += unresolved
	if degraded {
		s.degradedPasses++
	}
}

// AddSearch folds one pass's branch-and-bound effort deltas.
func (s *Scorecard) AddSearch(nodes, widenings int) {
	if s == nil {
		return
	}
	s.bnbNodes += nodes
	s.widenings += widenings
}

// RecordCrash folds one server crash and the fate of its VMs.
func (s *Scorecard) RecordCrash(evacuated, lost int) {
	if s == nil {
		return
	}
	s.crashes++
	s.vmsEvacuated += evacuated
	s.vmsLost += lost
}

// RecordDrain folds one control period's bounded event drain: the event
// count and the longest same-instant run. It runs every period whether or
// not a budget is in force, so it must stay allocation-free.
func (s *Scorecard) RecordDrain(events, sameTime int) {
	if s == nil {
		return
	}
	s.drains++
	if events > s.maxDrainEvents {
		s.maxDrainEvents = events
	}
	if sameTime > s.maxSameTime {
		s.maxSameTime = sameTime
	}
}

// RecordBudgetTrip counts one drain cut short by its budget; wall marks
// the wall-clock watchdog (as opposed to an event bound) as the cause.
func (s *Scorecard) RecordBudgetTrip(wall bool) {
	if s == nil {
		return
	}
	s.budgetTrips++
	if wall {
		s.wallTrips++
	}
}

// RecordQuarantine counts one quarantine entry (repeated budget
// exhaustion escalated past the breaker) and returns the entries so far.
func (s *Scorecard) RecordQuarantine() uint64 {
	if s == nil {
		return 0
	}
	s.quarantines++
	return s.quarantines
}

// Audit returns the decision ring (nil on a nil scorecard; Record on a
// nil Audit no-ops, so callers need no guard).
func (s *Scorecard) Audit() *Audit {
	if s == nil {
		return nil
	}
	return s.audit
}

// SLO returns the objective state for gauge publication.
func (s *Scorecard) SLO() *SLO {
	if s == nil {
		return nil
	}
	return s.slo
}

// Merge folds o into s: counters add, sketches merge exactly, the SLO
// windows fold their tallies, and o's audit records re-sequence into
// s's ring. The SLO geometry (budget and window sizes) must match — the
// burn semantics of mismatched windows cannot be combined — and apps
// must line up by index and name when both sides registered any. The
// breaker state/cooldown keep s's view (gauges don't sum); transitions
// add. o is not modified.
func (s *Scorecard) Merge(o *Scorecard) error {
	if s == nil || o == nil {
		return nil
	}
	//lint:ignore floatcompare budgets are configured literals, never computed — geometry must match exactly
	if s.cfg.SLOBudget != o.cfg.SLOBudget || s.cfg.FastWindow != o.cfg.FastWindow || s.cfg.SlowWindow != o.cfg.SlowWindow {
		return fmt.Errorf("obs: merging scorecards with different SLO geometry (budget %v/%v, windows %d/%d vs %d/%d)",
			s.cfg.SLOBudget, o.cfg.SLOBudget, s.cfg.FastWindow, s.cfg.SlowWindow, o.cfg.FastWindow, o.cfg.SlowWindow)
	}
	if len(s.apps) == 0 && len(o.apps) > 0 {
		// Adopt o's app set (s was an empty aggregate).
		for _, a := range o.apps {
			i := s.RegisterApp(a.name, a.rref)
			s.apps[i].samples = a.samples
			s.apps[i].violations = a.violations
			s.apps[i].resp.Merge(a.resp)
		}
	} else {
		if len(o.apps) > 0 && len(o.apps) != len(s.apps) {
			return fmt.Errorf("obs: merging scorecards with %d vs %d apps", len(s.apps), len(o.apps))
		}
		for i := range o.apps {
			if s.apps[i].name != o.apps[i].name {
				return fmt.Errorf("obs: app %d is %q on one side, %q on the other", i, s.apps[i].name, o.apps[i].name)
			}
			s.apps[i].samples += o.apps[i].samples
			s.apps[i].violations += o.apps[i].violations
			s.apps[i].resp.Merge(o.apps[i].resp)
		}
	}
	s.steps += o.steps
	s.qpSolves += o.qpSolves
	s.warmAttempts += o.warmAttempts
	s.coldRetries += o.coldRetries
	s.relaxations += o.relaxations
	s.fallbacks += o.fallbacks
	s.residual.Merge(o.residual)
	s.periods += o.periods
	s.held += o.held
	s.dropped += o.dropped
	s.openLoop += o.openLoop
	if o.maxHeldStreak > s.maxHeldStreak {
		s.maxHeldStreak = o.maxHeldStreak
	}
	s.breakerTrans += o.breakerTrans
	s.passes += o.passes
	s.migrations += o.migrations
	s.vetoes += o.vetoes
	s.failedMoves += o.failedMoves
	s.unresolved += o.unresolved
	s.watchdogPasses += o.watchdogPasses
	s.watchdogMoves += o.watchdogMoves
	s.degradedPasses += o.degradedPasses
	s.bnbNodes += o.bnbNodes
	s.widenings += o.widenings
	s.crashes += o.crashes
	s.vmsEvacuated += o.vmsEvacuated
	s.vmsLost += o.vmsLost
	s.drains += o.drains
	s.budgetTrips += o.budgetTrips
	s.wallTrips += o.wallTrips
	s.quarantines += o.quarantines
	if o.maxDrainEvents > s.maxDrainEvents {
		s.maxDrainEvents = o.maxDrainEvents
	}
	if o.maxSameTime > s.maxSameTime {
		s.maxSameTime = o.maxSameTime
	}
	s.power.Merge(o.power)
	s.slo.merge(o.slo)
	s.audit.merge(o.audit)
	merged, err := mergeReplay(s.replay, o.replay)
	if err != nil {
		return err
	}
	s.replay = merged
	return nil
}

// MPCReport is the solver-quality slice of the report.
type MPCReport struct {
	Solves              int           `json:"solves"`
	WarmAttempts        int           `json:"warm_attempts"`
	ColdRetries         int           `json:"cold_retries"`
	WarmHitRate         float64       `json:"warm_hit_rate"`
	TerminalRelaxations int           `json:"terminal_relaxations"`
	Fallbacks           int           `json:"fallbacks"`
	Residual            SketchSummary `json:"residual"`
}

// ControlReport is the measurement-plane slice.
type ControlReport struct {
	Periods       uint64 `json:"periods"`
	Held          uint64 `json:"held"`
	Dropped       uint64 `json:"dropped"`
	OpenLoop      uint64 `json:"open_loop"`
	MaxHeldStreak int    `json:"max_held_streak"`
}

// BreakerReport is the circuit-breaker slice.
type BreakerReport struct {
	State         string `json:"state"`
	CooldownTicks int    `json:"cooldown_ticks"`
	Transitions   uint64 `json:"transitions"`
}

// OptimizerReport is the consolidation-layer slice.
type OptimizerReport struct {
	Passes         int `json:"passes"`
	Migrations     int `json:"migrations"`
	Vetoes         int `json:"vetoes"`
	FailedMoves    int `json:"failed_moves"`
	Unresolved     int `json:"unresolved"`
	WatchdogPasses int `json:"watchdog_passes"`
	WatchdogMoves  int `json:"watchdog_moves"`
	DegradedPasses int `json:"degraded_passes"`
	BnBNodes       int `json:"bnb_nodes"`
	Widenings      int `json:"widenings"`
}

// ClusterReport is the fault-plane slice.
type ClusterReport struct {
	Crashes      int `json:"crashes"`
	VMsEvacuated int `json:"vms_evacuated"`
	VMsLost      int `json:"vms_lost"`
}

// GuardReport is the bounded-execution slice: how hard the step drains
// worked and how often the guard layer had to step in.
type GuardReport struct {
	Drains         uint64 `json:"drains"`
	BudgetTrips    uint64 `json:"budget_trips"`
	WallTrips      uint64 `json:"wall_trips"`
	Quarantines    uint64 `json:"quarantines"`
	MaxDrainEvents int    `json:"max_drain_events"`
	MaxSameTime    int    `json:"max_same_time"`
}

// AppReport is one registered application's slice.
type AppReport struct {
	Name       string        `json:"name"`
	RRefSec    float64       `json:"rref_sec"`
	Samples    uint64        `json:"samples"`
	Violations uint64        `json:"violations"`
	Response   SketchSummary `json:"response"`
}

// Report is the scorecard's JSON document. Every field order is fixed
// by the struct and apps render in registration order, so same-seed
// runs produce byte-identical documents.
type Report struct {
	Schema    string            `json:"schema"`
	Label     string            `json:"label,omitempty"`
	Steps     uint64            `json:"steps"`
	SLO       SLOReport         `json:"slo"`
	MPC       MPCReport         `json:"mpc"`
	Control   ControlReport     `json:"control"`
	Breaker   BreakerReport     `json:"breaker"`
	Optimizer OptimizerReport   `json:"optimizer"`
	Cluster   ClusterReport     `json:"cluster"`
	Guard     GuardReport       `json:"guard"`
	Apps      []AppReport       `json:"apps"`
	Power     *SketchSummary    `json:"power,omitempty"`
	Replay    *trace.Provenance `json:"replay,omitempty"`
	Audit     AuditReport       `json:"audit"`
}

// SchemaVersion identifies the scorecard document format.
const SchemaVersion = "vdcobs/v1"

// Report snapshots the scorecard.
func (s *Scorecard) Report() Report {
	if s == nil {
		return Report{Schema: SchemaVersion}
	}
	hit := 0.0
	if s.qpSolves > 0 {
		hit = float64(s.warmAttempts-s.coldRetries) / float64(s.qpSolves)
	}
	rep := Report{
		Schema: SchemaVersion,
		Label:  s.cfg.Label,
		Steps:  s.steps,
		SLO:    s.slo.report(),
		MPC: MPCReport{
			Solves:              s.qpSolves,
			WarmAttempts:        s.warmAttempts,
			ColdRetries:         s.coldRetries,
			WarmHitRate:         hit,
			TerminalRelaxations: s.relaxations,
			Fallbacks:           s.fallbacks,
			Residual:            s.residual.Summary(),
		},
		Control: ControlReport{
			Periods:       s.periods,
			Held:          s.held,
			Dropped:       s.dropped,
			OpenLoop:      s.openLoop,
			MaxHeldStreak: s.maxHeldStreak,
		},
		Breaker: BreakerReport{
			State:         s.breakerState,
			CooldownTicks: s.breakerCooldown,
			Transitions:   s.breakerTrans,
		},
		Optimizer: OptimizerReport{
			Passes:         s.passes,
			Migrations:     s.migrations,
			Vetoes:         s.vetoes,
			FailedMoves:    s.failedMoves,
			Unresolved:     s.unresolved,
			WatchdogPasses: s.watchdogPasses,
			WatchdogMoves:  s.watchdogMoves,
			DegradedPasses: s.degradedPasses,
			BnBNodes:       s.bnbNodes,
			Widenings:      s.widenings,
		},
		Cluster: ClusterReport{
			Crashes:      s.crashes,
			VMsEvacuated: s.vmsEvacuated,
			VMsLost:      s.vmsLost,
		},
		Guard: GuardReport{
			Drains:         s.drains,
			BudgetTrips:    s.budgetTrips,
			WallTrips:      s.wallTrips,
			Quarantines:    s.quarantines,
			MaxDrainEvents: s.maxDrainEvents,
			MaxSameTime:    s.maxSameTime,
		},
		Apps:  []AppReport{},
		Audit: s.audit.report(),
	}
	for i := range s.apps {
		a := &s.apps[i]
		rep.Apps = append(rep.Apps, AppReport{
			Name:       a.name,
			RRefSec:    a.rref,
			Samples:    a.samples,
			Violations: a.violations,
			Response:   a.resp.Summary(),
		})
	}
	if s.power.Count() > 0 {
		sum := s.power.Summary()
		rep.Power = &sum
	}
	rep.Replay = s.replay.Clone()
	return rep
}

// WriteJSON renders the report as indented JSON. The document is
// deterministic: struct-ordered fields, registration-ordered apps,
// sequence-ordered audit records.
func (s *Scorecard) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Report())
}
