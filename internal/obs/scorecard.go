package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/guard"
	"vdcpower/internal/mpc"
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
// per-app violation counts are judged against is the init fact's set
// point); 0 marks an objective that is not a response time, e.g.
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

// appHealth is one registered application's health slice: its report
// counters and the sketch its response summary is read from.
type appHealth struct {
	AppReport
	resp *Sketch
}

// Scorecard aggregates one control loop's health: MPC solve quality
// (prediction residuals, QP warm-start hit rate, relaxations and
// fallbacks), measurement-plane degradation (hold windows, open-loop
// activations), breaker state, optimizer effort (passes, migrations,
// vetoes, B&B nodes and widenings), cluster faults, per-app response
// time versus R_ref, and the SLO burn state — plus the decision audit
// ring. It subscribes to a harness's probe: Observe folds every fact the
// harness emits. It is single-writer (harnesses own it; serve serializes
// under its mutex), every method is nil-safe, and steady-state facts fold
// without allocating. Merge combines per-worker scorecards exactly, in
// any order.
type Scorecard struct {
	cfg   Config
	steps uint64

	// The report's slices, each counter kept once. Report fills the
	// derived fields: the warm-hit rate and the sketch summaries.
	mpc       MPCReport // cumulative; each step fact's solve tally overwrites it
	control   ControlReport
	breaker   BreakerReport
	optimizer OptimizerReport
	cluster   ClusterReport
	guard     GuardReport
	apps      []appHealth

	residual *Sketch
	power    *Sketch
	slo      *SLO
	audit    *Audit
	replay   *trace.Provenance

	// Transitions within one run, which Merge does not fold.
	appIndex    []int  // scorecard app index per harness application, from the init fact
	openLoop    []bool // per application, the previous control fact's open-loop flag
	quarantined bool   // the previous breaker fact's quarantine flag
}

// New builds an empty scorecard with cfg's knobs (defaults applied).
func New(cfg Config) *Scorecard {
	cfg = cfg.withDefaults()
	return &Scorecard{
		cfg:      cfg,
		breaker:  BreakerReport{State: guard.StateName(guard.Closed)},
		residual: NewSketch(),
		power:    NewSketch(),
		slo:      newSLO(cfg.SLOTargetSec, cfg.SLOBudget, cfg.FastWindow, cfg.SlowWindow),
		audit:    newAudit(cfg.AuditCapacity),
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

// registerApp adds an application with its response-time target R_ref
// and returns its index. Registration order is the report order.
func (s *Scorecard) registerApp(name string, rrefSec float64) int {
	s.apps = append(s.apps, appHealth{AppReport: AppReport{Name: name, RRefSec: rrefSec}, resp: NewSketch()})
	return len(s.apps) - 1
}

// Observe folds one probe fact. The init fact registers the harness's
// applications against their set point; every later fact lands in the
// tallies, sketches, SLO windows and decision audit ring. Facts the
// scorecard does not read (packing, migration) leave it unchanged.
//
//vdc:hotpath fig6/obs-on
func (s *Scorecard) Observe(ev check.Event) {
	if s == nil {
		return
	}
	switch ev.Kind {
	case check.EvInit:
		s.foldInit(ev)
	case check.EvGuard:
		s.foldDrain(ev)
	case check.EvControl:
		s.foldControl(ev)
	case check.EvConsolidate, check.EvWatchdog:
		s.foldPass(ev)
	case check.EvCrash:
		c, lost := ev.Crash, len(ev.LostVMs)
		s.cluster.Crashes++
		s.cluster.VMsEvacuated += c.Evacuated
		s.cluster.VMsLost += lost
		reason := "crashed by the fault plane; its VMs were evacuated"
		if c.Lose {
			reason = "crashed by the fault plane; its VMs were lost"
		}
		s.record(ev, Decision{Component: "fault-plane", Action: "server-crash", Target: c.Server,
			Reason: reason, Value: float64(c.Evacuated + lost)})
	case check.EvStep:
		s.steps++
		if ev.HasSLO {
			s.slo.Observe(ev.SLOMet)
		}
		if ev.HasPower {
			s.power.Observe(ev.PowerW)
		}
		// The tally is cumulative over the run, so it overwrites.
		if st := ev.Solve; st != (mpc.SolveStats{}) {
			s.mpc.Solves, s.mpc.WarmAttempts, s.mpc.ColdRetries = st.Solves, st.WarmAttempts, st.ColdRetries
			s.mpc.TerminalRelaxations, s.mpc.Fallbacks = st.Relaxations, st.Fallbacks
		}
	case check.EvBreaker:
		s.foldBreaker(ev)
	}
}

// record audits d stamped with the fact's step and time.
func (s *Scorecard) record(ev check.Event, d Decision) {
	d.Step, d.TimeSec = ev.Step, ev.TimeSec
	s.audit.Record(d)
}

// foldInit registers the init fact's applications in their harness order.
func (s *Scorecard) foldInit(ev check.Event) {
	for _, name := range ev.Apps {
		s.appIndex = append(s.appIndex, s.registerApp(name, ev.SetpointSec))
	}
	s.openLoop = make([]bool, len(s.appIndex))
}

// foldDrain folds one control period's bounded event drain and audits
// a step it aborted. It runs every period whether or not a budget is in
// force.
func (s *Scorecard) foldDrain(ev check.Event) {
	g, t := ev.Guard, &s.guard
	t.Drains++
	t.MaxDrainEvents = max(t.MaxDrainEvents, g.Events)
	t.MaxSameTime = max(t.MaxSameTime, g.SameTime)
	if !g.Aborted {
		return
	}
	t.BudgetTrips++
	if g.Wall {
		t.WallTrips++
	}
	s.record(ev, Decision{Component: "guard", Action: "step-abort", Target: "testbed",
		Reason: g.Err.Error(), Value: float64(g.Events), Span: ev.Span})
}

// foldControl folds one controller step and audits open-loop
// transitions.
func (s *Scorecard) foldControl(ev check.Event) {
	c, t := ev.Control, &s.control
	t.Periods++
	if c.Held {
		t.Held++
	}
	if c.Dropped {
		t.Dropped++
	}
	if c.OpenLoop {
		t.OpenLoop++
	}
	t.MaxHeldStreak = max(t.MaxHeldStreak, c.HeldStreak)
	if c.HasResidual {
		s.residual.Observe(math.Abs(c.Residual))
	}
	if c.Index < 0 || c.Index >= len(s.appIndex) {
		return
	}
	// A held period carries no fresh measurement — it must not produce an
	// SLO sample or a response observation.
	if !c.Held {
		a := &s.apps[s.appIndex[c.Index]]
		a.Samples++
		a.resp.Observe(c.T90)
		good := c.T90 <= a.RRefSec
		if !good {
			a.Violations++
		}
		s.slo.Observe(good)
	}
	if c.OpenLoop == s.openLoop[c.Index] {
		return
	}
	s.openLoop[c.Index] = c.OpenLoop
	action, reason := "open-loop", "hold window exhausted: frozen at the last-good allocation"
	if !c.OpenLoop {
		action, reason = "close-loop", "valid measurement returned: resuming MPC control"
	}
	s.record(ev, Decision{Component: "controller", Action: action, Target: c.App,
		Reason: reason, Value: float64(c.HeldStreak), Span: "mpc-" + c.App})
}

// foldPass folds one consolidation or watchdog pass and audits every
// server it switched on or off. A fact without a before-snapshot that
// matches its data center audits nothing.
func (s *Scorecard) foldPass(ev check.Event) {
	rep, t := ev.Report, &s.optimizer
	t.Migrations += rep.Migrations
	t.FailedMoves += rep.FailedMoves
	t.Unresolved += rep.Unresolved
	if ev.Degraded {
		t.DegradedPasses++
	}
	if ev.Kind == check.EvWatchdog {
		t.WatchdogPasses++
		t.WatchdogMoves += rep.Migrations
	} else {
		t.Passes++
		t.Vetoes += rep.Vetoed
		t.BnBNodes += ev.Nodes
		t.Widenings += ev.Widenings
	}
	if ev.DC == nil || len(ev.ActiveBefore) != len(ev.DC.Servers) {
		return
	}
	for i, srv := range ev.DC.Servers {
		on := srv.State() == cluster.Active
		if on == ev.ActiveBefore[i] {
			continue
		}
		action, reason := "server-off", "its load was packed onto fewer servers"
		if on {
			action, reason = "server-on", "woken to host re-placed load"
		}
		s.record(ev, Decision{Component: ev.Policy, Action: action, Target: srv.ID, Reason: reason, Span: ev.Span})
	}
}

// foldBreaker mirrors serve's breaker state — its name ("closed" until
// the first fact), remaining cooldown and a transition per name change —
// and audits every transition, each quarantine entry or exit first.
func (s *Scorecard) foldBreaker(ev check.Event) {
	b := ev.Breaker
	if b.Quarantined != s.quarantined {
		s.quarantined = b.Quarantined
		d := Decision{Component: "serve", Action: "quarantine-exit",
			Reason: "successful step while quarantined", Span: ev.Span}
		if b.Quarantined {
			s.guard.Quarantines++
			d.Action, d.Reason = "quarantine-enter", "repeated step-budget exhaustion"
			d.Value = float64(s.guard.Quarantines)
		}
		s.record(ev, d)
	}
	if state := guard.StateName(b.State); state != s.breaker.State {
		s.breaker.State = state
		s.breaker.Transitions++
	}
	s.breaker.CooldownTicks = b.Cooldown
	if b.State == b.Prev {
		return
	}
	action, reason := "breaker-half-open", "cooldown expired: probing with one real step"
	switch {
	case b.State == guard.Closed:
		action, reason = "breaker-close", "probe step succeeded"
	case b.State == guard.Open && b.Prev == guard.HalfOpen:
		action, reason = "breaker-open", "probe step failed: cooldown re-armed"
	case b.State == guard.Open:
		action, reason = "breaker-open", "consecutive step failures reached the threshold"
	}
	s.record(ev, Decision{Component: "serve", Action: action, Reason: reason,
		Value: float64(b.ConsecFails), Span: ev.Span})
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
// must line up by index and name when both sides registered any; an
// empty s adopts o's. The breaker state/cooldown keep s's view (gauges
// don't sum); transitions add. o is not modified.
func (s *Scorecard) Merge(o *Scorecard) error {
	if s == nil || o == nil {
		return nil
	}
	//lint:ignore floatcompare budgets are configured literals, never computed — geometry must match exactly
	if s.cfg.SLOBudget != o.cfg.SLOBudget || s.cfg.FastWindow != o.cfg.FastWindow || s.cfg.SlowWindow != o.cfg.SlowWindow {
		return fmt.Errorf("obs: merging scorecards with different SLO geometry (budget %v/%v, windows %d/%d vs %d/%d)",
			s.cfg.SLOBudget, o.cfg.SLOBudget, s.cfg.FastWindow, s.cfg.SlowWindow, o.cfg.FastWindow, o.cfg.SlowWindow)
	}
	if len(s.apps) == 0 {
		for _, a := range o.apps {
			s.registerApp(a.Name, a.RRefSec)
		}
	}
	if len(o.apps) > 0 && len(o.apps) != len(s.apps) {
		return fmt.Errorf("obs: merging scorecards with %d vs %d apps", len(s.apps), len(o.apps))
	}
	for i := range o.apps {
		a, b := &s.apps[i], &o.apps[i]
		if a.Name != b.Name {
			return fmt.Errorf("obs: app %d is %q on one side, %q on the other", i, a.Name, b.Name)
		}
		a.Samples += b.Samples
		a.Violations += b.Violations
		a.resp.Merge(b.resp)
	}
	s.steps += o.steps

	m := &s.mpc
	m.Solves += o.mpc.Solves
	m.WarmAttempts += o.mpc.WarmAttempts
	m.ColdRetries += o.mpc.ColdRetries
	m.TerminalRelaxations += o.mpc.TerminalRelaxations
	m.Fallbacks += o.mpc.Fallbacks
	s.residual.Merge(o.residual)

	c := &s.control
	c.Periods += o.control.Periods
	c.Held += o.control.Held
	c.Dropped += o.control.Dropped
	c.OpenLoop += o.control.OpenLoop
	c.MaxHeldStreak = max(c.MaxHeldStreak, o.control.MaxHeldStreak)

	s.breaker.Transitions += o.breaker.Transitions

	p := &s.optimizer
	p.Passes += o.optimizer.Passes
	p.Migrations += o.optimizer.Migrations
	p.Vetoes += o.optimizer.Vetoes
	p.FailedMoves += o.optimizer.FailedMoves
	p.Unresolved += o.optimizer.Unresolved
	p.WatchdogPasses += o.optimizer.WatchdogPasses
	p.WatchdogMoves += o.optimizer.WatchdogMoves
	p.DegradedPasses += o.optimizer.DegradedPasses
	p.BnBNodes += o.optimizer.BnBNodes
	p.Widenings += o.optimizer.Widenings

	s.cluster.Crashes += o.cluster.Crashes
	s.cluster.VMsEvacuated += o.cluster.VMsEvacuated
	s.cluster.VMsLost += o.cluster.VMsLost

	g := &s.guard
	g.Drains += o.guard.Drains
	g.BudgetTrips += o.guard.BudgetTrips
	g.WallTrips += o.guard.WallTrips
	g.Quarantines += o.guard.Quarantines
	g.MaxDrainEvents = max(g.MaxDrainEvents, o.guard.MaxDrainEvents)
	g.MaxSameTime = max(g.MaxSameTime, o.guard.MaxSameTime)

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
	rep := Report{
		Schema:    SchemaVersion,
		Label:     s.cfg.Label,
		Steps:     s.steps,
		SLO:       s.slo.report(),
		MPC:       s.mpc,
		Control:   s.control,
		Breaker:   s.breaker,
		Optimizer: s.optimizer,
		Cluster:   s.cluster,
		Guard:     s.guard,
		Apps:      make([]AppReport, len(s.apps)),
		Replay:    s.replay.Clone(),
		Audit:     s.audit.report(),
	}
	if s.mpc.Solves > 0 {
		rep.MPC.WarmHitRate = float64(s.mpc.WarmAttempts-s.mpc.ColdRetries) / float64(s.mpc.Solves)
	}
	rep.MPC.Residual = s.residual.Summary()
	for i, a := range s.apps {
		rep.Apps[i] = a.AppReport
		rep.Apps[i].Response = a.resp.Summary()
	}
	if s.power.Count() > 0 {
		sum := s.power.Summary()
		rep.Power = &sum
	}
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
