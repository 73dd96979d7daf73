package devs

import (
	"fmt"
	"math/rand"
	"testing"
)

// kernel is the surface the differential driver exercises, implemented by
// the slab kernel and by the reference copy of the kernel it replaced.
type kernel interface {
	schedule(id int, at float64, fn func(), label string)
	after(id int, d float64, fn func(), label string)
	cancel(id int)
	live(id int) bool
	now() float64
	pending() int
	step() bool
	runUntil(t float64, b Budget) (DrainStats, error)
}

type slabKernel struct {
	s       *Simulator
	handles map[int]Event
}

func (k *slabKernel) schedule(id int, at float64, fn func(), label string) {
	e := k.s.Schedule(at, fn)
	e.SetLabel(label)
	k.handles[id] = e
}
func (k *slabKernel) after(id int, d float64, fn func(), label string) {
	e := k.s.After(d, fn)
	e.SetLabel(label)
	k.handles[id] = e
}
func (k *slabKernel) cancel(id int)    { k.handles[id].Cancel() }
func (k *slabKernel) live(id int) bool { return k.handles[id].Pending() }
func (k *slabKernel) now() float64     { return k.s.Now() }
func (k *slabKernel) pending() int     { return k.s.Pending() }
func (k *slabKernel) step() bool       { return k.s.Step() }
func (k *slabKernel) runUntil(t float64, b Budget) (DrainStats, error) {
	return k.s.RunUntilBudget(t, b)
}

type refKernel struct {
	s       *refSimulator
	handles map[int]*refEvent
}

func (k *refKernel) schedule(id int, at float64, fn func(), label string) {
	e := k.s.Schedule(at, fn)
	e.Label = label
	k.handles[id] = e
}
func (k *refKernel) after(id int, d float64, fn func(), label string) {
	e := k.s.After(d, fn)
	e.Label = label
	k.handles[id] = e
}
func (k *refKernel) cancel(id int) { k.handles[id].Cancel() }
func (k *refKernel) live(id int) bool {
	e := k.handles[id]
	return !e.cancelled && e.index >= 0
}
func (k *refKernel) now() float64 { return k.s.Now() }
func (k *refKernel) pending() int { return k.s.Pending() }
func (k *refKernel) step() bool   { return k.s.Step() }
func (k *refKernel) runUntil(t float64, b Budget) (DrainStats, error) {
	return k.s.RunUntilBudget(t, b)
}

var diffLabels = []string{"", "a", "b", "psqueue.complete"}

// driveKernel applies a seeded random sequence of operations to k and
// returns everything observable: the firing sequence, the clock, Pending,
// DrainStats and the BudgetError fields. Budget-error samples are checked
// in place: each must name a live pending event with its label.
func driveKernel(t *testing.T, k kernel, seed int64, ops int) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var log []string
	type meta struct {
		at    float64
		label string
	}
	var events []meta
	var fire func(id int) func()
	// add schedules a new event; a fired event may add follow-ups, some at
	// its own instant, so same-time runs and Zeno-like chains occur. The
	// follow-ups are a pure function of the firing event's id, so both
	// kernels see identical requests as long as they fire identically.
	add := func(after bool, d float64, label string) {
		id := len(events)
		at := k.now() + d
		events = append(events, meta{at: at, label: label})
		if after {
			k.after(id, d, fire(id), label)
		} else {
			k.schedule(id, at, fire(id), label)
		}
	}
	fire = func(id int) func() {
		return func() {
			log = append(log, fmt.Sprintf("fire %d at %v", id, k.now()))
			if len(events) > 4000 {
				return
			}
			h := uint64(id)*0x9E3779B97F4A7C15 + uint64(seed)
			for n := int(h>>60) % 3; n > 0; n-- {
				h = h*6364136223846793005 + 1442695040888963407
				add(h>>63 == 1, float64((h>>40)%4)*0.5, diffLabels[(h>>20)%4])
			}
		}
	}
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(20); {
		case r < 7:
			add(false, float64(rng.Intn(8))*0.25, diffLabels[rng.Intn(len(diffLabels))])
		case r < 10:
			add(true, float64(rng.Intn(8))*0.25, diffLabels[rng.Intn(len(diffLabels))])
		case r < 14:
			if len(events) > 0 {
				// Any handle: live, fired, cancelled or already recycled.
				k.cancel(rng.Intn(len(events)))
			}
		case r < 15:
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
				log = append(log, fmt.Sprintf("trip %s at %v events %d same %d pending %d sample %d",
					be.Reason, be.At, be.Events, be.SameTime, be.Pending, len(be.Sample)))
				if want := min(sampleSize, be.Pending); len(be.Sample) != want {
					t.Fatalf("seed %d: sample of %d, want %d", seed, len(be.Sample), want)
				}
				for _, p := range be.Sample {
					found := false
					for id, m := range events {
						if k.live(id) && m.at == p.Time && m.label == p.Label {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("seed %d: sample %+v is not a live pending event", seed, p)
					}
				}
			}
		}
		log = append(log, fmt.Sprintf("now %v pending %d", k.now(), k.pending()))
	}
	return log
}

// The slab kernel must be observationally identical to the kernel it
// replaced under random schedule/cancel/drain sequences.
func TestSlabKernelMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		got := driveKernel(t, &slabKernel{s: NewSimulator(), handles: map[int]Event{}}, seed, 250)
		want := driveKernel(t, &refKernel{s: &refSimulator{}, handles: map[int]*refEvent{}}, seed, 250)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d observations, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: observation %d = %q, reference %q", seed, i, got[i], want[i])
			}
		}
	}
}

// The differential driver must notice a kernel that fires ties out of
// scheduling order.
func TestSlabKernelDifferentialCatchesTieReorder(t *testing.T) {
	diverged := false
	for seed := int64(0); seed < 50 && !diverged; seed++ {
		got := driveKernel(t, &lifoKernel{slabKernel{s: NewSimulator(), handles: map[int]Event{}}}, seed, 250)
		want := driveKernel(t, &refKernel{s: &refSimulator{}, handles: map[int]*refEvent{}}, seed, 250)
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Fatal("a kernel breaking FIFO ties went unnoticed")
	}
}

// lifoKernel breaks ties last-in-first-out: it inverts the sequence
// number of every event it schedules, so among equal times the latest
// such event sorts first.
type lifoKernel struct{ slabKernel }

func (k *lifoKernel) schedule(id int, at float64, fn func(), label string) {
	k.slabKernel.schedule(id, at, fn, label)
	e := k.handles[id]
	sl := &k.s.slab[e.idx]
	sl.seq = ^e.seq
	it := k.s.heap[sl.pos]
	it.seq = sl.seq
	k.s.siftDown(int(sl.pos), it) // the key only grew
	k.handles[id] = Event{sim: k.s, at: at, seq: sl.seq, idx: e.idx}
}
