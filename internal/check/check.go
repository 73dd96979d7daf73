// Package check provides runtime invariant checking for the simulation
// stack: a pluggable Invariant interface, a registry of the conservation
// laws the paper's algorithms are supposed to preserve (VMs never lost,
// allocations never exceed capacity, energy never negative, IPAC never
// increases active servers, Minimum Slack never worse than FFD), and a
// Checker that observes a running simulation through typed events.
//
// Event is also the stack's single fact vocabulary: testbed, dcsim and
// serve emit every fact once, as an Event, into one nil-safe probe
// (package probe), and the Checker is one of its subscribers next to the
// controller-health scorecard and the metrics registry. Hand-written
// figure tests exercise the scenarios somebody imagined; the checker
// exists for the scenarios nobody did — randomized stress (package
// check/quick) and fuzzing drive the same invariants over inputs no one
// hand-writes.
package check

import (
	"fmt"
	"strings"

	"vdcpower/internal/cluster"
	"vdcpower/internal/mpc"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/packing"
)

// Kind labels the simulation point an Event was captured at.
type Kind int

const (
	// EvInit fires once, after initial placement / construction.
	EvInit Kind = iota
	// EvStep fires after one simulation step's power accounting.
	EvStep
	// EvConsolidate fires after a full consolidator invocation.
	EvConsolidate
	// EvWatchdog fires after an on-demand overload-relief pass.
	EvWatchdog
	// EvPacking fires after one MinimumSlack call observed through
	// ObserveMinimumSlack.
	EvPacking
	// EvMigration fires at each two-phase migration transition (reserve,
	// commit, rollback) when the harness wires the migration observer.
	EvMigration
	// EvCrash fires after a server crash was applied, carrying the IDs of
	// any VMs lost with it (empty under the evacuate policy).
	EvCrash
	// EvControl fires after one response-time controller step, carrying
	// the hold/open-loop state for the staleness law.
	EvControl
	// EvGuard fires after one control period's bounded event drain,
	// carrying the budget and what the drain actually did.
	EvGuard
	// EvBreaker fires whenever serve publishes its circuit breaker's
	// state: at construction and on every tick that touches it.
	EvBreaker
)

// kindNames indexes the event kind names by Kind.
var kindNames = [...]string{
	EvInit: "init", EvStep: "step", EvConsolidate: "consolidate", EvWatchdog: "watchdog",
	EvPacking: "packing", EvMigration: "migration", EvCrash: "crash", EvControl: "control",
	EvGuard: "guard", EvBreaker: "breaker",
}

// String names the event kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one observation point. Fields beyond Kind and Step are
// optional; subscribers skip events lacking the data they need. The
// per-period payloads (Control, Guard) are values, so an unobserved run
// builds them without allocating; pointer fields are valid only for the
// duration of one delivery.
type Event struct {
	Kind Kind
	Step int // trace step or control period; -1 when not applicable

	TimeSec float64 // logical simulation time of the fact
	Span    string  // telemetry span the fact was observed under (audit links)

	// DC is the live data center (init, step, consolidate, watchdog).
	DC *cluster.DataCenter
	// Apps names a testbed's applications in order, and SetpointSec is
	// their shared response-time target (init).
	Apps        []string
	SetpointSec float64

	// Report is the optimizer's account of a consolidate/watchdog pass.
	Report *optimizer.Report
	// Policy is the consolidator's Name() for policy-scoped invariants.
	Policy string
	// OverloadedBefore counts servers that were overloaded when the
	// consolidator was invoked (waking servers is then legitimate).
	OverloadedBefore int
	// ActiveBefore records which of DC.Servers were active before a
	// consolidate/watchdog pass (index-aligned). probe.Probe.Pass sets it
	// on every pass fact, in every harness.
	ActiveBefore     []bool
	Nodes, Widenings int  // the pass's branch-and-bound effort
	Degraded         bool // the pass was skipped on an injected transient error

	// PowerW is the instantaneous power accounted for this step and
	// EnergyJ the cumulative energy so far; valid when the Has flags are
	// set.
	PowerW    float64
	EnergyJ   float64
	HasPower  bool
	HasEnergy bool
	Active    int // powered-on servers after the step
	// SLOMet is the step's data-center objective verdict (no active
	// server overloaded); valid when HasSLO is set.
	SLOMet, HasSLO bool
	// Solve is the cumulative MPC solve tally over every controller; zero
	// when the step ran no MPC layer.
	Solve mpc.SolveStats

	// MinSlack carries one observed Algorithm 1 invocation.
	MinSlack *MinSlackObservation

	// Migration carries one two-phase migration transition (EvMigration).
	Migration *MigrationObservation
	// LostVMs lists VM IDs dropped by a server crash under the "lose"
	// policy (EvCrash); conservation laws remove them from their baseline.
	LostVMs []string
	Crash   CrashObservation   // the crashed server (EvCrash)
	Control ControlObservation // one controller step (EvControl)
	Guard   GuardObservation   // one bounded drain's budget accounting (EvGuard)
	Breaker BreakerObservation // serve's circuit-breaker state (EvBreaker)
}

// MigrationObservation captures one two-phase migration transition.
type MigrationObservation struct {
	VMID  string
	From  string
	To    string
	Phase string // cluster.TxPhase: reserved, committed, rolled_back
}

// ControlObservation captures one response-time controller step. It is a
// plain struct (no core dependency) the harness fills from
// core.StepResult.
type ControlObservation struct {
	App        string
	Index      int // the application's position in the init event's Apps
	Held       bool
	Dropped    bool // the measurement was lost or non-finite
	HeldStreak int
	HoldWindow int // the controller's configured bound (with defaults applied)
	OpenLoop   bool
	T90        float64 // measured 90-percentile response time (the held value when Held)
	Relaxed    bool    // the MPC dropped its terminal constraint
	// Residual is the one-step prediction error, valid when HasResidual.
	Residual    float64
	HasResidual bool
}

// GuardObservation captures one control period's bounded event drain for
// the step-budget law: the limits in force, what the drain consumed, and
// whether exhaustion was converted into an aborted (failed) step.
type GuardObservation struct {
	MaxEvents   int   // event budget in force; 0 = unbounded
	Events      int   // events the drain fired
	MaxSameTime int   // same-instant budget in force; 0 = unbounded
	SameTime    int   // longest same-instant run observed
	Tripped     bool  // a budget bound (or watchdog) cut the drain short
	Aborted     bool  // the harness failed the step in response
	Wall        bool  // the wall-clock watchdog, not an event bound, tripped
	Err         error // the budget error behind an abort
}

// CrashObservation describes one server crash.
type CrashObservation struct {
	Server    string
	Evacuated int  // VMs re-placed on the surviving fleet
	Lose      bool // the crash policy dropped the VMs (listed in LostVMs)
}

// BreakerObservation captures serve's guard.Breaker as it is published.
// States use guard's codes: guard.Closed (0), guard.Open (1) and
// guard.HalfOpen (2).
type BreakerObservation struct {
	State       int
	Prev        int // the state before this publication
	Cooldown    int // ticks left before an open breaker half-opens
	ConsecFails int // failed steps since the last success
	Quarantined bool
}

// Violation records one broken invariant.
type Violation struct {
	Invariant string
	Kind      Kind
	Step      int
	Detail    string
}

// String renders the violation on one line.
func (v Violation) String() string {
	return fmt.Sprintf("%s [%s step %d]: %s", v.Invariant, v.Kind, v.Step, v.Detail)
}

// Invariant is one law checked against a stream of events. Implementations
// may keep state across events (conservation laws compare against a
// baseline); a fresh instance must be used per run.
type Invariant interface {
	// Name identifies the invariant as module/law.
	Name() string
	// Check inspects one event; a non-nil error is a violation.
	Check(ev Event) error
}

// maxViolations bounds stored violations so a systematically broken run
// cannot grow memory without bound; the count keeps climbing.
const maxViolations = 100

// Checker fans events out to a set of invariants and records violations.
// It is not safe for concurrent use: attach one checker per run.
type Checker struct {
	invs       []Invariant
	violations []Violation
	nViolation int
	nEvents    int
}

// New builds a checker over the given invariants. Use All() for the full
// registry.
func New(invs ...Invariant) *Checker {
	return &Checker{invs: invs}
}

// Observe runs every invariant against the event and records violations.
func (c *Checker) Observe(ev Event) {
	c.nEvents++
	for _, inv := range c.invs {
		if err := inv.Check(ev); err != nil {
			c.nViolation++
			if len(c.violations) < maxViolations {
				c.violations = append(c.violations, Violation{
					Invariant: inv.Name(),
					Kind:      ev.Kind,
					Step:      ev.Step,
					Detail:    err.Error(),
				})
			}
		}
	}
}

// Events returns the number of events observed.
func (c *Checker) Events() int { return c.nEvents }

// NumViolations returns the total number of violations seen (it may
// exceed len(Violations) when the storage cap was hit).
func (c *Checker) NumViolations() int { return c.nViolation }

// Violations returns the recorded violations (capped; do not mutate).
func (c *Checker) Violations() []Violation { return c.violations }

// Err returns nil when every invariant held, or an error summarizing the
// violations.
func (c *Checker) Err() error {
	if c.nViolation == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d invariant violation(s) in %d events:", c.nViolation, c.nEvents)
	for i, v := range c.violations {
		if i == 5 {
			fmt.Fprintf(&b, "\n  ... and %d more", c.nViolation-i)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return fmt.Errorf("%s", b.String())
}

// MinSlackObservation captures one MinimumSlack invocation: the inputs as
// seen by the algorithm and its result. The bin must be in its pre-Add
// state (MinimumSlack does not mutate it).
type MinSlackObservation struct {
	Bin        *packing.Bin
	Candidates []packing.Item
	Cons       packing.VectorConstraint
	Config     packing.MinSlackConfig
	Result     packing.MinSlackResult
}

// ObserveMinimumSlack runs Algorithm 1 and emits the invocation as an
// EvPacking event, so the packing invariants vet every observed search.
// It returns the result unchanged; with a nil checker it is exactly
// packing.MinimumSlack.
func ObserveMinimumSlack(c *Checker, b *packing.Bin, candidates []packing.Item, cons packing.VectorConstraint, cfg packing.MinSlackConfig) packing.MinSlackResult {
	res := packing.MinimumSlack(b, candidates, cons, cfg)
	if c != nil {
		c.Observe(Event{
			Kind: EvPacking,
			Step: -1,
			MinSlack: &MinSlackObservation{
				Bin:        b,
				Candidates: candidates,
				Cons:       cons,
				Config:     cfg,
				Result:     res,
			},
		})
	}
	return res
}
