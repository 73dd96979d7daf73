package appsim

import (
	"container/heap"
	"math"

	"vdcpower/internal/devs"
)

// refPSQueue is the PS queue the value-typed job heap replaced, kept as a
// test-only reference for the differential tests: *refJob objects in a
// container/heap and a fresh closure per pause. Its only change is that
// its completion re-arm, once an event Cancel + Schedule, is a
// devs.Timer Stop or Reset, the kernel's only cancellable form.
type refPSQueue struct {
	sim        *devs.Simulator
	capacity   float64
	desired    float64
	paused     int
	vnow       float64
	jobs       refJobHeap
	lastUpdate float64
	next       *devs.Timer
	busyCycles float64
}

type refJob struct {
	vfinish float64
	done    func()
	index   int
}

type refJobHeap []*refJob

func (h refJobHeap) Len() int           { return len(h) }
func (h refJobHeap) Less(i, j int) bool { return h[i].vfinish < h[j].vfinish }
func (h refJobHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *refJobHeap) Push(x any)        { j := x.(*refJob); j.index = len(*h); *h = append(*h, j) }
func (h *refJobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

func newRefPSQueue(sim *devs.Simulator, capacityGHz float64) *refPSQueue {
	q := &refPSQueue{sim: sim, lastUpdate: sim.Now()}
	q.desired = clampCapacity(capacityGHz)
	q.capacity = q.desired
	q.next = sim.NewTimer("psqueue.complete", q.complete)
	return q
}

func (q *refPSQueue) Capacity() float64 { return q.desired }
func (q *refPSQueue) Paused() bool      { return q.paused > 0 }
func (q *refPSQueue) Len() int          { return len(q.jobs) }

func (q *refPSQueue) Pause(seconds float64) {
	if seconds <= 0 {
		return
	}
	q.advance()
	q.paused++
	q.capacity = minCapacity
	q.reschedule()
	q.sim.After(seconds, func() {
		q.advance()
		q.paused--
		if q.paused == 0 {
			q.capacity = q.desired
		}
		q.reschedule()
	})
}

func (q *refPSQueue) BusyCycles() float64 {
	q.advance()
	return q.busyCycles
}

func (q *refPSQueue) SetCapacity(capacityGHz float64) {
	q.advance()
	q.desired = clampCapacity(capacityGHz)
	if q.paused == 0 {
		q.capacity = q.desired
	}
	q.reschedule()
}

func (q *refPSQueue) Submit(demand float64, done func()) {
	q.advance()
	if !(demand > 0) || math.IsInf(demand, 1) {
		demand = 1e-9
	}
	heap.Push(&q.jobs, &refJob{vfinish: q.vnow + demand, done: done})
	q.reschedule()
}

func (q *refPSQueue) advance() {
	now := q.sim.Now()
	dt := now - q.lastUpdate
	q.lastUpdate = now
	if dt <= 0 || len(q.jobs) == 0 {
		return
	}
	q.vnow += dt * q.capacity / float64(len(q.jobs))
	q.busyCycles += dt * q.capacity
}

func (q *refPSQueue) reschedule() {
	if len(q.jobs) == 0 {
		q.next.Stop()
		return
	}
	remaining := q.jobs[0].vfinish - q.vnow
	if remaining < 0 {
		remaining = 0
	}
	at := q.sim.Now() + remaining*float64(len(q.jobs))/q.capacity
	if q.next.Pending() && q.next.Time() == at {
		return
	}
	q.next.Reset(at)
}

func (q *refPSQueue) complete() {
	q.advance()
	const eps = 1e-12
	var finished []*refJob
	for len(q.jobs) > 0 && q.jobs[0].vfinish <= q.vnow+eps {
		finished = append(finished, heap.Pop(&q.jobs).(*refJob))
	}
	if len(finished) == 0 && len(q.jobs) > 0 {
		now := q.sim.Now()
		remaining := q.jobs[0].vfinish - q.vnow
		if remaining < 0 {
			remaining = 0
		}
		if now+remaining*float64(len(q.jobs))/q.capacity == now {
			q.vnow = q.jobs[0].vfinish
			for len(q.jobs) > 0 && q.jobs[0].vfinish <= q.vnow+eps {
				finished = append(finished, heap.Pop(&q.jobs).(*refJob))
			}
		}
	}
	q.reschedule()
	for _, j := range finished {
		j.done()
	}
}

// refApp drives an App through the per-request closures that the pooled
// request records replaced, kept as a test-only reference. It shares the
// App's tiers, RNG, counters and window; only the request path and the
// client numbering are the replaced code's. That numbering (nextClient)
// retires every client regrown after a shrink, the bug
// TestAppSetConcurrencyRegrowth pins, so the differential test never
// regrows after a shrink.
type refApp struct {
	*App
	nextClient int
}

func (a *refApp) SetConcurrency(n int) {
	old := a.concurrency
	a.concurrency = n
	if a.started && n > old {
		for i := old; i < n; i++ {
			a.spawnClient(a.nextClient)
			a.nextClient++
		}
	}
}

func (a *refApp) Start() {
	if a.started {
		return
	}
	a.started = true
	for i := 0; i < a.concurrency; i++ {
		a.spawnClient(a.nextClient)
		a.nextClient++
	}
}

func (a *refApp) spawnClient(slot int) {
	a.sim.After(a.think(), func() { a.issue(slot) })
}

func (a *refApp) issue(slot int) {
	if slot >= a.concurrency {
		return
	}
	start := a.sim.Now()
	a.inFlight++
	a.visitTier(0, func() {
		a.inFlight--
		a.completed++
		a.window = append(a.window, a.sim.Now()-start)
		if slot >= a.concurrency {
			return
		}
		a.sim.After(a.think(), func() { a.issue(slot) })
	})
}

func (a *refApp) visitTier(i int, done func()) {
	if i >= len(a.tiers) {
		done()
		return
	}
	a.tiers[i].Submit(a.sampleDemand(i), func() { a.visitTier(i+1, done) })
}

func (a *refApp) injectRequest() {
	start := a.sim.Now()
	a.inFlight++
	a.visitTier(0, func() {
		a.inFlight--
		a.completed++
		a.window = append(a.window, a.sim.Now()-start)
	})
}
