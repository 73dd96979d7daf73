package devs

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// kernel is the surface the differential driver exercises, implemented by
// the split kernel and by the reference copy of the kernel it replaced.
// Timers are numbered in creation order.
type kernel interface {
	schedule(at float64, fn func())
	after(d float64, fn func())
	newTimer(label string, fn func())
	reset(id int, at float64)
	stop(id int)
	armed(id int) bool
	now() float64
	pending() int
	step() bool
	runUntil(t float64, b Budget) (DrainStats, error)
}

type splitKernel struct {
	s      *Simulator
	timers []*Timer
}

func (k *splitKernel) schedule(at float64, fn func()) { k.s.Schedule(at, fn) }
func (k *splitKernel) after(d float64, fn func())     { k.s.After(d, fn) }
func (k *splitKernel) newTimer(label string, fn func()) {
	k.timers = append(k.timers, k.s.NewTimer(label, fn))
}
func (k *splitKernel) reset(id int, at float64) { k.timers[id].Reset(at) }
func (k *splitKernel) stop(id int)              { k.timers[id].Stop() }
func (k *splitKernel) armed(id int) bool        { return k.timers[id].Pending() }
func (k *splitKernel) now() float64             { return k.s.Now() }
func (k *splitKernel) pending() int             { return k.s.Pending() }
func (k *splitKernel) step() bool               { return k.s.Step() }
func (k *splitKernel) runUntil(t float64, b Budget) (DrainStats, error) {
	return k.s.RunUntilBudget(t, b)
}

// refKernel maps a timer onto the reference kernel's one-shot events:
// Reset is Cancel + Schedule, Stop is Cancel.
type refKernel struct {
	s      *refSimulator
	timers []*refTimer
}

type refTimer struct {
	label string
	fn    func()
	ev    *refEvent
}

func (k *refKernel) schedule(at float64, fn func()) { k.s.Schedule(at, fn) }
func (k *refKernel) after(d float64, fn func())     { k.s.After(d, fn) }
func (k *refKernel) newTimer(label string, fn func()) {
	k.timers = append(k.timers, &refTimer{label: label, fn: fn})
}
func (k *refKernel) reset(id int, at float64) {
	tm := k.timers[id]
	k.stop(id)
	tm.ev = k.s.Schedule(at, tm.fn)
	tm.ev.Label = tm.label
}
func (k *refKernel) stop(id int) {
	if ev := k.timers[id].ev; ev != nil {
		ev.Cancel()
	}
}
func (k *refKernel) armed(id int) bool {
	ev := k.timers[id].ev
	return ev != nil && !ev.cancelled && ev.index >= 0
}
func (k *refKernel) now() float64 { return k.s.Now() }
func (k *refKernel) pending() int { return k.s.Pending() }
func (k *refKernel) step() bool   { return k.s.Step() }
func (k *refKernel) runUntil(t float64, b Budget) (DrainStats, error) {
	return k.s.RunUntilBudget(t, b)
}

var diffLabels = []string{"a", "b", "psqueue.complete"}

// diffTimers is how many timers the driver creates; every third one
// re-arms itself from its own callback.
const diffTimers = 7

// driveKernel applies a seeded random sequence of operations to k and
// returns everything observable: the firing sequence, the clock, Pending,
// which timers are armed, DrainStats and every BudgetError field,
// including the exact provenance sample.
func driveKernel(k kernel, seed int64, ops int) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	fired := 0
	// follow issues the deterministic follow-up work of one firing: a pure
	// function of the firing's identity, so both kernels see identical
	// requests as long as they fire identically. Follow-ups include
	// one-shot events and timer re-arms, some at the current instant, so
	// same-time runs and Zeno-like chains occur.
	var follow func(h uint64)
	var fireEvent func(id int) func()
	events := 0
	schedule := func(after bool, d float64) {
		id := events
		events++
		if after {
			k.after(d, fireEvent(id))
		} else {
			k.schedule(k.now()+d, fireEvent(id))
		}
	}
	follow = func(h uint64) {
		fired++
		if fired > 4000 {
			return
		}
		for n := int(h>>60) % 3; n > 0; n-- {
			h = h*6364136223846793005 + 1442695040888963407
			d := float64((h>>40)%4) * 0.5
			switch (h >> 20) % 3 {
			case 0:
				k.reset(int((h>>8)%diffTimers), k.now()+d)
			default:
				schedule(h>>63 == 1, d)
			}
		}
	}
	fireEvent = func(id int) func() {
		return func() {
			log = append(log, fmt.Sprintf("fire %d at %v", id, k.now()))
			follow(uint64(id)*0x9E3779B97F4A7C15 + uint64(seed))
		}
	}
	timerFires := make([]uint64, diffTimers)
	for i := 0; i < diffTimers; i++ {
		k.newTimer(diffLabels[i%len(diffLabels)], func() {
			log = append(log, fmt.Sprintf("timer %d at %v armed %v", i, k.now(), k.armed(i)))
			timerFires[i]++
			h := (uint64(i)+1)*0xC2B2AE3D27D4EB4F + timerFires[i]*0x165667B19E3779F9 + uint64(seed)
			if i%3 == 0 && fired < 4000 && h>>62 != 0 {
				k.reset(i, k.now()+float64((h>>30)%3)*0.25)
			}
			follow(h)
		})
	}
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(20); {
		case r < 5:
			schedule(false, float64(rng.Intn(8))*0.25)
		case r < 7:
			schedule(true, float64(rng.Intn(8))*0.25)
		case r < 11:
			// Armed or idle.
			k.reset(rng.Intn(diffTimers), k.now()+float64(rng.Intn(8))*0.25)
		case r < 13:
			k.stop(rng.Intn(diffTimers))
		case r < 14:
			log = append(log, fmt.Sprintf("step %v", k.step()))
		default:
			var b Budget
			switch rng.Intn(4) {
			case 1:
				b.MaxEvents = 1 + rng.Intn(12)
			case 2:
				b.MaxSameTimeEvents = 1 + rng.Intn(4)
			case 3:
				polls, every := 0, 1+rng.Intn(3)
				b.Interrupt = func() bool { polls++; return polls%every == 0 }
			}
			st, err := k.runUntil(k.now()+float64(rng.Intn(12))*0.25, b)
			log = append(log, fmt.Sprintf("drain %+v", st))
			if err != nil {
				be := err.(*BudgetError)
				log = append(log, fmt.Sprintf("trip %s at %v events %d same %d pending %d sample %+v",
					be.Reason, be.At, be.Events, be.SameTime, be.Pending, be.Sample))
			}
		}
		armed := 0
		for i := 0; i < diffTimers; i++ {
			if k.armed(i) {
				armed |= 1 << i
			}
		}
		log = append(log, fmt.Sprintf("now %v pending %d armed %b", k.now(), k.pending(), armed))
	}
	return log
}

// diverges reports the first observation at which two logs differ.
func diverges(got, want []string) (int, bool) {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return i, true
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want)), true
	}
	return 0, false
}

// The split kernel must be observationally identical to the kernel it
// replaced under random schedule/reset/stop/drain sequences.
func TestKernelMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		got := driveKernel(&splitKernel{s: NewSimulator()}, seed, 250)
		want := driveKernel(&refKernel{s: &refSimulator{}}, seed, 250)
		if i, bad := diverges(got, want); bad {
			t.Fatalf("seed %d: observation %d =\n%v\nreference\n%v", seed, i, entry(got, i), entry(want, i))
		}
	}
}

// entry returns log line i, or a marker past the log's end.
func entry(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "(end of log)"
}

// The differential driver must notice a kernel that fires ties out of
// scheduling order, and one that breaks ties between a one-shot event and
// a timer by queue instead of by sequence number.
func TestKernelDifferentialCatchesTieReorder(t *testing.T) {
	for name, mutant := range map[string]func() kernel{
		"lifo":        func() kernel { return &lifoKernel{splitKernel{s: NewSimulator()}} },
		"timer-first": func() kernel { return &timerFirstKernel{splitKernel{s: NewSimulator()}} },
	} {
		caught := false
		for seed := int64(0); seed < 50 && !caught; seed++ {
			_, caught = diverges(driveKernel(mutant(), seed, 250), driveKernel(&refKernel{s: &refSimulator{}}, seed, 250))
		}
		if !caught {
			t.Errorf("the %s mutant went unnoticed", name)
		}
	}
}

// rekeyLast rewrites the sequence number of the one-shot event queued
// last and restores the heap property. A sorted array is a valid heap.
func rekeyLast(s *Simulator, seq func(uint64) uint64) {
	for i := range s.events {
		if s.events[i].seq == s.seq-1 {
			s.events[i].seq = seq(s.events[i].seq)
		}
	}
	sort.Slice(s.events, func(i, j int) bool { return s.events[i].before(s.events[j].key) })
}

// lifoKernel breaks ties last-in-first-out: it inverts the sequence
// number of every one-shot event it schedules, so among equal times the
// latest such event sorts first.
type lifoKernel struct{ splitKernel }

func (k *lifoKernel) schedule(at float64, fn func()) {
	k.s.Schedule(at, fn)
	rekeyLast(k.s, func(seq uint64) uint64 { return ^seq })
}

func (k *lifoKernel) after(d float64, fn func()) { k.schedule(k.s.Now()+d, fn) }

// timerFirstKernel breaks ties between the queues by queue: it moves
// every one-shot event's sequence number behind every timer's, so an
// armed timer fires before any one-shot event at its instant, whichever
// was queued first. Ties within each queue keep their order.
type timerFirstKernel struct{ splitKernel }

func (k *timerFirstKernel) schedule(at float64, fn func()) {
	k.s.Schedule(at, fn)
	rekeyLast(k.s, func(seq uint64) uint64 { return seq | 1<<63 })
}

func (k *timerFirstKernel) after(d float64, fn func()) { k.schedule(k.s.Now()+d, fn) }
