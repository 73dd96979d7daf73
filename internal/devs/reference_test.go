package devs

import (
	"container/heap"
	"sort"
)

// This file keeps the original pointer-based kernel, as a test-only
// reference for the differential tests: *refEvent objects in one
// container/heap, cancellation by tombstone, and a lazy purge once
// tombstones outnumber live events. A timer maps onto it as Cancel +
// Schedule. It is the replaced code with its names prefixed, and two
// changes. The budget trip checks skip tombstones at the heap top: the
// replaced kernel peeked at the raw top, so a cancelled event inside the
// horizon could trip a bound on the drain's final live event, which its
// own contract ("a bound reached on the drain's final event is not an
// overrun") rules out. And the budget-error sample is the earliest four
// live events in firing order, as the kernel's is, instead of the first
// four of the heap array.

type refEvent struct {
	Time      float64
	Label     string
	fn        func()
	sim       *refSimulator
	seq       uint64
	index     int // heap index, -1 once popped or purged
	cancelled bool
}

func (e *refEvent) Cancel() {
	if e.cancelled {
		return
	}
	e.cancelled = true
	if e.sim != nil && e.index >= 0 {
		e.sim.cancelled++
		e.sim.maybePurge()
	}
}

type refEventHeap []*refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refEventHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

type refSimulator struct {
	now       float64
	heap      refEventHeap
	seq       uint64
	cancelled int
}

func (s *refSimulator) Now() float64 { return s.now }

func (s *refSimulator) Pending() int { return len(s.heap) - s.cancelled }

func (s *refSimulator) Schedule(at float64, fn func()) *refEvent {
	if at < s.now {
		panic("devs: scheduling event in the past")
	}
	e := &refEvent{Time: at, fn: fn, sim: s, seq: s.seq}
	s.seq++
	heap.Push(&s.heap, e)
	return e
}

const refPurgeThreshold = 64

func (s *refSimulator) maybePurge() {
	if s.cancelled < refPurgeThreshold || s.cancelled*2 <= len(s.heap) {
		return
	}
	live := s.heap[:0]
	for _, e := range s.heap {
		if e.cancelled {
			e.index = -1
			continue
		}
		e.index = len(live)
		live = append(live, e)
	}
	for i := len(live); i < len(s.heap); i++ {
		s.heap[i] = nil
	}
	s.heap = live
	heap.Init(&s.heap)
	s.cancelled = 0
}

func (s *refSimulator) After(d float64, fn func()) *refEvent {
	return s.Schedule(s.now+d, fn)
}

func (s *refSimulator) Step() bool {
	for len(s.heap) > 0 {
		e := heap.Pop(&s.heap).(*refEvent)
		if e.cancelled {
			s.cancelled--
			continue
		}
		s.now = e.Time
		e.fn()
		return true
	}
	return false
}

// dropDeadTop pops tombstones off the heap top, so the top is live.
func (s *refSimulator) dropDeadTop() {
	for len(s.heap) > 0 && s.heap[0].cancelled {
		heap.Pop(&s.heap)
		s.cancelled--
	}
}

func (s *refSimulator) budgetError(reason string, st DrainStats) error {
	be := &BudgetError{
		Reason:   reason,
		At:       s.now,
		Events:   st.Events,
		SameTime: st.SameTime,
		Pending:  len(s.heap) - s.cancelled,
	}
	var live refEventHeap
	for _, e := range s.heap {
		if !e.cancelled {
			live = append(live, e)
		}
	}
	sort.Slice(live, live.Less)
	for _, e := range live[:min(sampleSize, len(live))] {
		be.Sample = append(be.Sample, PendingEvent{Time: e.Time, Label: e.Label})
	}
	return be
}

func (s *refSimulator) RunUntilBudget(t float64, b Budget) (DrainStats, error) {
	var st DrainStats
	var runTime float64
	run := 0
	for len(s.heap) > 0 && s.heap[0].Time <= t {
		e := heap.Pop(&s.heap).(*refEvent)
		if e.cancelled {
			s.cancelled--
			continue
		}
		s.now = e.Time
		e.fn()
		st.Events++
		if st.Events == 1 || e.Time != runTime {
			runTime = e.Time
			run = 1
		} else {
			run++
		}
		if run > st.SameTime {
			st.SameTime = run
		}
		s.dropDeadTop()
		more := len(s.heap) > 0 && s.heap[0].Time <= t
		if b.MaxEvents > 0 && st.Events >= b.MaxEvents && more {
			return st, s.budgetError(ReasonMaxEvents, st)
		}
		if b.MaxSameTimeEvents > 0 && run >= b.MaxSameTimeEvents && more && s.heap[0].Time == runTime {
			return st, s.budgetError(ReasonSameTime, st)
		}
		if b.Interrupt != nil && st.Events%interruptEvery == 0 && b.Interrupt() {
			return st, s.budgetError(ReasonInterrupt, st)
		}
	}
	if t > s.now {
		s.now = t
	}
	return st, nil
}
