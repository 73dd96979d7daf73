package devs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Budget bounds one drain of the event queue. A zero Budget imposes no
// bound. Budgets exist because a broken model can schedule events forever
// at one instant (a Zeno storm, DESIGN §14): the kernel must be able
// to hand control back to its caller instead of spinning.
type Budget struct {
	// MaxEvents caps the total events fired in one drain. 0 = unbounded.
	MaxEvents int
	// MaxSameTimeEvents caps the number of consecutive events fired at a
	// single virtual instant — the signature of a Zeno loop. 0 = unbounded.
	MaxSameTimeEvents int
	// Interrupt, when non-nil, is polled periodically during the drain;
	// returning true aborts it. The callback must be cheap, must not
	// touch the simulator, and must be safe for concurrent use: every
	// domain of a drain polls it, from the goroutine draining that
	// domain. It is how a wall-clock watchdog reaches into the drain
	// without the kernel ever reading a real clock.
	Interrupt func() bool
}

// interruptEvery is how many events pass between Interrupt polls.
const interruptEvery = 64

// DrainStats summarizes one bounded drain. It is returned by value so a
// budget check on the hot path costs no allocation.
type DrainStats struct {
	Events   int // events fired during the drain
	SameTime int // longest run of events sharing one virtual instant
}

// ErrBudgetExceeded is the sentinel matched by errors.Is when a drain is
// cut short by its Budget. The concrete error is a *BudgetError carrying
// the stuck timestamp and a sample of pending-event provenance.
var ErrBudgetExceeded = errors.New("devs: drain budget exceeded")

// Budget trip reasons, recorded in BudgetError.Reason.
const (
	ReasonMaxEvents = "max-events"
	ReasonSameTime  = "same-time-events"
	ReasonInterrupt = "interrupt"
)

// PendingEvent is one entry of the provenance sample attached to a
// BudgetError: what was still queued when the drain was cut short.
type PendingEvent struct {
	Time  float64
	Label string
}

// BudgetError reports a drain cut short by its Budget.
type BudgetError struct {
	Reason   string         // which bound tripped (Reason* constants)
	At       float64        // virtual time when the drain stopped
	Events   int            // events fired before the trip
	SameTime int            // longest same-instant run observed
	Pending  int            // events still queued plus armed timers
	Sample   []PendingEvent // the up to sampleSize earliest pending entries, in firing order
}

const sampleSize = 4

func (e *BudgetError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "devs: drain budget exceeded (%s) at t=%.6g: %d events fired (longest same-instant run %d), %d pending",
		e.Reason, e.At, e.Events, e.SameTime, e.Pending)
	if len(e.Sample) > 0 {
		b.WriteString("; pending sample:")
		for _, p := range e.Sample {
			label := p.Label
			if label == "" {
				label = "(unlabeled)"
			}
			fmt.Fprintf(&b, " %s@%.6g", label, p.Time)
		}
	}
	return b.String()
}

// Unwrap makes errors.Is(err, ErrBudgetExceeded) work.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// budgetError builds the trip diagnosis of a drain of the queues of sims,
// stopped at virtual time at. Cold path: it only runs when a drain is
// being aborted, so its allocations never tax a healthy drain. The sample
// is the earliest pending work across both queues of every simulator,
// ordered by time, then position in sims, then sequence: within one
// simulator that is firing order. One-shot events carry no label.
func budgetError(reason string, at float64, st DrainStats, sims []*Simulator) error {
	be := &BudgetError{
		Reason:   reason,
		At:       at,
		Events:   st.Events,
		SameTime: st.SameTime,
	}
	for _, q := range sims {
		be.Pending += len(q.events) + len(q.timers)
	}
	type pending struct {
		key
		domain int
		label  string
	}
	all := make([]pending, 0, be.Pending)
	for i, q := range sims {
		for _, e := range q.events {
			all = append(all, pending{key: e.key, domain: i})
		}
		for _, a := range q.timers {
			all = append(all, pending{key: a.key, domain: i, label: a.t.label})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.domain != b.domain && !(a.at < b.at) && !(b.at < a.at) {
			return a.domain < b.domain
		}
		return a.before(b.key)
	})
	for _, p := range all[:min(sampleSize, len(all))] {
		be.Sample = append(be.Sample, PendingEvent{Time: p.at, Label: p.label})
	}
	return be
}

// tree appends s and then each domain's tree, in creation order: the
// domain order, with s as domain zero.
func (s *Simulator) tree(dst []*Simulator) []*Simulator {
	dst = append(dst, s)
	for _, d := range s.domains {
		dst = d.tree(dst)
	}
	return dst
}

// RunUntilBudget fires everything pending with Time <= t, subject to the
// budget, and then advances the clock to exactly t. When a bound trips it
// stops mid-drain — the clock rests at the last fired event — and returns
// the stats so far plus a *BudgetError. With a zero Budget it behaves
// exactly like RunUntil and never returns an error.
//
// A simulator with domains drains its own work first, as domain zero,
// and then its domains. The caller and up to min(GOMAXPROCS,
// domains)−1 parked helpers of the package's pool claim the domains one
// at a time, in creation order, and drain them at once; with one P, or
// no helper parked, the caller claims them all. Each domain drains
// exactly as a standalone simulator would under b, with its own
// MaxEvents cap, same-instant run and Interrupt poll, and every domain
// is drained even after another one trips or panics. The results fold
// in creation order, so the outcome does not depend on which goroutine
// drained what: Events is the sum over domains and SameTime the maximum.
// The error is the first tripped domain's, describing that domain. If
// no domain tripped but together they fired more than MaxEvents, the
// drain trips with ReasonMaxEvents, describing s and every domain.
// Afterwards the clock rests at the earliest domain clock, which is t
// unless a domain tripped. A callback's panic reaches the caller once
// every domain has drained, the first in creation order winning, with
// the callback's stack written to standard error. A callback must not
// end its goroutine (runtime.Goexit, testing's FailNow), since it may
// run on a helper; one that does on a helper makes the caller panic
// with an error saying so, instead of waiting for it forever.
func (s *Simulator) RunUntilBudget(t float64, b Budget) (DrainStats, error) {
	st, err := s.drain(t, b)
	if len(s.domains) == 0 {
		return st, err
	}
	s.drainDomains(t, b)
	for i, d := range s.domains {
		r := &s.fan.results[i]
		st.Events += r.st.Events
		st.SameTime = max(st.SameTime, r.st.SameTime)
		if err == nil {
			err = r.err
		}
		s.now = min(s.now, d.now)
	}
	if err == nil && b.MaxEvents > 0 && st.Events > b.MaxEvents {
		err = budgetError(ReasonMaxEvents, s.now, st, s.tree(nil))
	}
	return st, err
}

// drain is RunUntilBudget over s's own queues, ignoring its domains.
func (s *Simulator) drain(t float64, b Budget) (DrainStats, error) {
	var st DrainStats
	var runTime float64 // instant of the current same-time run
	run := 0            // events fired at runTime so far
	at, ok := s.peek()
	for ok && at <= t {
		s.fire()
		st.Events++
		//lint:ignore floatcompare same-instant detection must be exact; an epsilon would mistake distinct times for a Zeno run
		if st.Events == 1 || at != runTime {
			runTime = at
			run = 1
		} else {
			run++
		}
		if run > st.SameTime {
			st.SameTime = run
		}
		// Trip only when queued work remains inside the horizon; a bound
		// reached on the drain's final event is not an overrun.
		at, ok = s.peek()
		more := ok && at <= t
		if b.MaxEvents > 0 && st.Events >= b.MaxEvents && more {
			return st, budgetError(ReasonMaxEvents, s.now, st, []*Simulator{s})
		}
		//lint:ignore floatcompare the same-time bound trips only if the next event shares this exact instant
		if b.MaxSameTimeEvents > 0 && run >= b.MaxSameTimeEvents && more && at == runTime {
			return st, budgetError(ReasonSameTime, s.now, st, []*Simulator{s})
		}
		if b.Interrupt != nil && st.Events%interruptEvery == 0 && b.Interrupt() {
			return st, budgetError(ReasonInterrupt, s.now, st, []*Simulator{s})
		}
	}
	if t > s.now {
		s.now = t
	}
	return st, nil
}
