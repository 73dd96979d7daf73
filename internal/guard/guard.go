// Package guard is the bounded-execution subsystem: it decides how much
// work one control step may do (event budget, same-instant budget,
// wall-clock deadline), turns kernel budget trips into typed step-abort
// errors, and holds a control loop's one degradation state machine,
// Breaker: a circuit breaker whose cooldown a quarantine stretches after
// repeated step aborts, with automatic half-open recovery.
//
// The package deliberately sits outside the deterministic simulation
// packages: the wall-clock watchdog lives here, and reaches into a drain
// only through the opaque devs.Budget.Interrupt callback, so the kernel
// and testbed never read a real clock.
package guard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vdcpower/internal/devs"
)

// Defaults for the per-step budget. A healthy control period fires a few
// thousand kernel events per application, so two million events or one
// hundred thousand at a single instant is two-plus orders of magnitude of
// headroom — anything past that is a runaway, not a workload.
const (
	DefaultMaxEvents         = 2_000_000
	DefaultMaxSameTimeEvents = 100_000
	DefaultWall              = 10 * time.Second
)

// StepBudget bounds one control step. Zero fields impose no bound.
type StepBudget struct {
	MaxEvents         int           // kernel events per step
	MaxSameTimeEvents int           // events at one virtual instant
	Wall              time.Duration // wall-clock deadline for the step's drain
}

// DefaultStepBudget returns the budget applied when the operator does not
// choose one.
func DefaultStepBudget() StepBudget {
	return StepBudget{
		MaxEvents:         DefaultMaxEvents,
		MaxSameTimeEvents: DefaultMaxSameTimeEvents,
		Wall:              DefaultWall,
	}
}

// DevsBudget lowers the step budget onto the kernel. The wall deadline
// does not translate directly — the caller arms a Watchdog and passes its
// Expired method as the interrupt.
func (b StepBudget) DevsBudget(interrupt func() bool) devs.Budget {
	return devs.Budget{
		MaxEvents:         b.MaxEvents,
		MaxSameTimeEvents: b.MaxSameTimeEvents,
		Interrupt:         interrupt,
	}
}

// Watchdog is a wall-clock deadline whose Expired is lock-free. Arm
// starts the deadline for the current step; Expired reports whether the
// armed deadline has passed; Disarm invalidates it. Generation counters
// make a deadline that fired after Disarm or re-Arm harmless.
//
// The watchdog keeps one timer for its life and re-arms it with Reset, so
// a warmed Arm/Disarm cycle allocates nothing, and Disarm and re-Arm stop
// the superseded deadline, so a step that ends in time leaves nothing
// queued in the runtime's timer heap. A callback the runtime started
// before a Reset or Stop could not cancel it runs late; it is counted in
// stale and expires nothing, so a late callback never expires a later
// step. Arm, Disarm and the callback serialize on mu.
type Watchdog struct {
	gen     atomic.Uint64 // current arming generation; bumped by Arm and Disarm
	expired atomic.Uint64 // generation whose deadline fired

	mu     sync.Mutex
	timer  *time.Timer // created by the first positive Arm, then reused
	armed  bool        // the timer holds a deadline no Stop or firing consumed
	target uint64      // the generation the armed deadline expires
	stale  int         // callbacks started for deadlines since superseded
}

// Arm starts (or restarts) the deadline. A non-positive duration arms
// nothing: the step is unbounded in wall time.
func (w *Watchdog) Arm(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	g := w.gen.Add(1)
	if d <= 0 {
		w.stop()
		return
	}
	w.target = g
	switch {
	case w.timer == nil:
		w.timer = time.AfterFunc(d, w.fire)
	case !w.timer.Reset(d) && w.armed:
		// The superseded deadline fired, and its callback has yet to take
		// mu: it must not expire this one.
		w.stale++
	}
	w.armed = true
}

// Disarm invalidates the current deadline and stops its timer.
func (w *Watchdog) Disarm() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gen.Add(1)
	w.stop()
}

// stop cancels the armed deadline. Callers hold mu.
func (w *Watchdog) stop() {
	if w.armed && !w.timer.Stop() {
		w.stale++ // fired, and its callback has yet to take mu
	}
	w.armed = false
}

// fire is the timer's callback: it expires the armed generation unless
// it was started for a deadline since superseded.
func (w *Watchdog) fire() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stale > 0 {
		w.stale--
		return
	}
	w.armed = false
	w.expired.Store(w.target)
}

// Expired reports whether the currently armed deadline has passed. It is
// safe to call from any goroutine, including a kernel drain's interrupt
// poll.
func (w *Watchdog) Expired() bool {
	g := w.gen.Load()
	return g != 0 && w.expired.Load() == g
}

// StepAbort is a control step cut short by its execution budget: the
// drain was aborted, the period's record is missing, and the breaker
// should treat the step as failed. It wraps the kernel's *devs.BudgetError,
// so errors.Is(err, devs.ErrBudgetExceeded) also matches.
type StepAbort struct {
	Period int   // control period that was aborted
	Wall   bool  // true when the wall-clock watchdog (not an event bound) tripped
	Err    error // the kernel's diagnosis, a *devs.BudgetError
}

func (e *StepAbort) Error() string {
	kind := "event budget"
	if e.Wall {
		kind = "wall-clock deadline"
	}
	return fmt.Sprintf("guard: step %d aborted (%s exhausted): %v", e.Period, kind, e.Err)
}

func (e *StepAbort) Unwrap() error { return e.Err }

// AsStepAbort extracts the *StepAbort from an error chain, if present.
func AsStepAbort(err error) (*StepAbort, bool) {
	var sa *StepAbort
	if errors.As(err, &sa) {
		return sa, true
	}
	return nil, false
}

// IsStepAbort reports whether the error chain contains a budget-exhausted
// step abort.
func IsStepAbort(err error) bool {
	_, ok := AsStepAbort(err)
	return ok
}

// The degraded-mode policy. BreakerThreshold failed steps since the last
// success open the breaker, and an open breaker waits BreakerCooldown
// ticks before it probes. QuarantineThreshold wedge-class openings since
// the last success engage quarantine, which stretches every cooldown by
// QuarantineFactor.
const (
	BreakerThreshold    = 5
	BreakerCooldown     = 10
	QuarantineThreshold = 2
	QuarantineFactor    = 6
)

// Breaker states, the codes check.BreakerObservation and the
// vdcpower_breaker_state gauge carry.
const (
	Closed   = iota // healthy: every tick runs a step
	Open            // cooling down: ticks are absorbed
	HalfOpen        // probing: one real step decides
)

// StateName renders a breaker state for reports.
func StateName(state int) string {
	switch state {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a control loop's degraded-mode state machine. A circuit
// breaker treats every failure alike, but a wedge-class failure — a step
// cut short by its execution budget, a *StepAbort — is worse than one
// that merely errors: the model is runaway, and every half-open probe
// burns a full budget. So the breaker counts its wedge-class openings,
// and quarantine stretches the cooldown so that such probes become rare.
// One successful step closes the breaker and lifts quarantine.
//
// The zero value is a closed breaker. Not safe for concurrent use;
// callers hold their own lock.
type Breaker struct {
	state       int  // Closed, Open or HalfOpen
	fails       int  // failed steps since the last success
	cooldown    int  // ticks left before an open breaker half-opens
	wedges      int  // wedge-class openings since the last success
	quarantined bool // the cooldown is stretched
}

// Tick decides one tick of the loop and reports whether it runs a step.
// An open breaker absorbs the ticks of its cooldown; the last one
// half-opens it, and that step runs as the probe.
func (b *Breaker) Tick() bool {
	if b.state == Open && b.cooldown > 1 {
		b.cooldown--
		return false
	}
	if b.state != Closed {
		b.state, b.cooldown = HalfOpen, 0
	}
	return true
}

// Succeed folds a successful step: from any state the breaker closes, its
// failure count clears, and quarantine lifts with the wedge tally reset.
// The cooldown stays as it is: the tick that ran the step spent it. It
// reports whether the breaker was open or half-open and whether
// quarantine was engaged.
func (b *Breaker) Succeed() (wasOpen, wasQuarantined bool) {
	wasOpen, wasQuarantined = b.state != Closed, b.quarantined
	b.state, b.fails, b.wedges, b.quarantined = Closed, 0, 0, false
	return wasOpen, wasQuarantined
}

// Fail folds a failed step. A failure while open or half-open re-opens
// the breaker; the BreakerThreshold-th failure since the last success
// opens a closed one. Either arms the cooldown. A wedge-class failure
// that opens or re-opens the breaker counts toward quarantine, and the
// opening that engages it already gets the stretched cooldown.
func (b *Breaker) Fail(err error) (reopened, opened, quarantined bool) {
	b.fails++
	switch {
	case b.state != Closed:
		reopened = true
	case b.fails >= BreakerThreshold:
		opened = true
	default:
		return false, false, false
	}
	b.state = Open
	if IsStepAbort(err) {
		b.wedges++
		if !b.quarantined && b.wedges >= QuarantineThreshold {
			b.quarantined, quarantined = true, true
		}
	}
	b.cooldown = BreakerCooldown
	if b.quarantined {
		b.cooldown *= QuarantineFactor
	}
	return reopened, opened, quarantined
}

// State returns Closed, Open or HalfOpen.
func (b *Breaker) State() int { return b.state }

// Failures returns the failed steps since the last success.
func (b *Breaker) Failures() int { return b.fails }

// Cooldown returns the ticks left before an open breaker half-opens.
func (b *Breaker) Cooldown() int { return b.cooldown }

// Quarantined reports whether quarantine is engaged.
func (b *Breaker) Quarantined() bool { return b.quarantined }
