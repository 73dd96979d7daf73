// Package guard is the bounded-execution subsystem: it decides how much
// work one control step may do (event budget, same-instant budget,
// wall-clock deadline), turns kernel budget trips into typed step-abort
// errors the circuit breaker understands, and escalates repeated
// exhaustion into a quarantine with automatic half-open recovery.
//
// The package deliberately sits outside the deterministic simulation
// packages: the wall-clock watchdog lives here, and reaches into a drain
// only through the opaque devs.Budget.Interrupt callback, so the kernel
// and testbed never read a real clock.
package guard

import (
	"errors"
	"fmt"
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

// Watchdog is a lock-free wall-clock deadline. Arm starts a timer for the
// current step; Expired reports whether the armed deadline has passed;
// Disarm invalidates it. Generation counters make a late timer firing
// after Disarm or re-Arm harmless, so no timer bookkeeping races matter.
// Disarm and re-Arm also stop the superseded timer, so a step that ends
// in time leaves nothing queued in the runtime's timer heap pinning the
// watchdog (and whatever owns it) until the deadline would have passed.
type Watchdog struct {
	gen     atomic.Uint64              // current arming generation; bumped by Arm and Disarm
	expired atomic.Uint64              // generation whose deadline fired
	timer   atomic.Pointer[time.Timer] // the armed deadline's timer, nil when none
}

// Arm starts (or restarts) the deadline. A non-positive duration arms
// nothing: the step is unbounded in wall time.
func (w *Watchdog) Arm(d time.Duration) {
	g := w.gen.Add(1)
	var t *time.Timer
	if d > 0 {
		t = time.AfterFunc(d, func() { w.expired.Store(g) })
	}
	if old := w.timer.Swap(t); old != nil {
		old.Stop()
	}
}

// Disarm invalidates the current deadline and stops its timer.
func (w *Watchdog) Disarm() {
	w.gen.Add(1)
	if t := w.timer.Swap(nil); t != nil {
		t.Stop()
	}
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

// Two wedge-class breaker openings in a row engage quarantine, which
// stretches the breaker cooldown sixfold.
const (
	QuarantineThreshold = 2
	QuarantineFactor    = 6
)

// Quarantine escalates repeated budget exhaustion. A circuit breaker
// treats every failure alike; a step that exhausts its execution budget
// is worse than one that merely errors — the model is runaway, and rapid
// half-open probes each burn a full budget. Quarantine counts consecutive
// wedge-class (budget-exhausted) breaker openings and, at
// QuarantineThreshold, stretches the breaker's cooldown by
// QuarantineFactor so probes become rare. A single successful probe lifts
// it, restoring the normal cadence.
//
// The zero value is ready to use. Not safe for concurrent use; callers
// hold their own lock.
type Quarantine struct {
	wedges  int  // consecutive wedge-class openings
	active  bool // currently quarantined
	entries int  // times quarantine has been entered, for reporting
}

// RecordWedge notes a wedge-class breaker opening and reports whether
// this one pushed the state into quarantine.
func (q *Quarantine) RecordWedge() (entered bool) {
	q.wedges++
	if !q.active && q.wedges >= QuarantineThreshold {
		q.active = true
		q.entries++
		return true
	}
	return false
}

// RecordRecovery notes a healthy step; it resets the wedge tally and
// lifts an active quarantine.
func (q *Quarantine) RecordRecovery() {
	q.wedges = 0
	q.active = false
}

// Active reports whether quarantine is engaged.
func (q *Quarantine) Active() bool { return q.active }

// Entries reports how many times quarantine has been entered.
func (q *Quarantine) Entries() int { return q.entries }

// Cooldown maps the breaker's base cooldown to the effective one:
// stretched by QuarantineFactor while quarantined, untouched otherwise.
func (q *Quarantine) Cooldown(base int) int {
	if q.active {
		return base * QuarantineFactor
	}
	return base
}
