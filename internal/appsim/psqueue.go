// Package appsim simulates multi-tier web applications on the devs
// kernel. Each tier is a processor-sharing (PS) queue whose service
// capacity equals the CPU allocation (GHz) of the VM hosting the tier —
// the standard model of a time-shared web or database server. Closed-loop
// client populations reproduce the semantics of the paper's `ab -c N`
// workload generator, and a response-time monitor yields the
// 90-percentile SLA metric per control period.
package appsim

import (
	"math"

	"vdcpower/internal/devs"
)

// job is one request's visit to a tier, keyed by the virtual time at
// which it completes.
type job struct {
	vfinish float64 // virtual time of completion
	done    func()
}

// PSQueue is an egalitarian processor-sharing service station with a
// capacity that may change at any instant (the actuator of the response
// time controller). All jobs in service receive capacity/n GHz each.
//
// The implementation uses the virtual-time formulation of PS: a virtual
// clock advances at rate capacity/n, each job finishes when the clock
// has advanced by its service demand since arrival, and the earliest
// completion sits at the top of a min-heap. Every operation is
// O(log n), so even a divergently overloaded queue (an open workload
// past its stability limit) stays cheap to simulate.
type PSQueue struct {
	sim        *devs.Simulator
	capacity   float64 // effective GHz (minCapacity while paused)
	desired    float64 // capacity requested by the controller
	paused     int     // nesting count of active pauses
	vnow       float64 // virtual clock (GHz·s of per-job service granted)
	jobs       []job   // min-heap on vfinish
	lastUpdate float64
	next       *devs.Timer // the head job's completion
	busyCycles float64     // integrated work served, GHz·s

	resumeFn func()   // q.resume, bound once so ending a pause allocates nothing
	finished []func() // complete's scratch
}

// minCapacity guards against a zero allocation stalling the queue forever;
// it corresponds to the tiny CPU share the hypervisor always grants.
const minCapacity = 1e-3

// maxCapacity caps the service rate a single tier may be granted. No
// modeled host comes near it; its job is to keep +Inf (and the virtual
// clock arithmetic downstream) out of the queue.
const maxCapacity = 1e6

// clampCapacity forces a requested capacity into [minCapacity,
// maxCapacity]. NaN needs its own check: math.Max(NaN, min) is NaN, so
// the old clamp let NaN straight through into the virtual clock.
func clampCapacity(capacityGHz float64) float64 {
	if math.IsNaN(capacityGHz) || capacityGHz < minCapacity {
		return minCapacity
	}
	if capacityGHz > maxCapacity {
		return maxCapacity
	}
	return capacityGHz
}

// NewPSQueue creates a PS queue with the given capacity in GHz.
func NewPSQueue(sim *devs.Simulator, capacityGHz float64) *PSQueue {
	q := &PSQueue{sim: sim, lastUpdate: sim.Now()}
	q.desired = clampCapacity(capacityGHz)
	q.capacity = q.desired
	q.next = sim.NewTimer("psqueue.complete", q.complete)
	q.resumeFn = q.resume
	return q
}

// Capacity returns the capacity requested by the controller (the
// effective rate is near zero while paused).
func (q *PSQueue) Capacity() float64 { return q.desired }

// Paused reports whether the queue is currently stalled by a migration.
func (q *PSQueue) Paused() bool { return q.paused > 0 }

// Pause stalls service for the given duration — the stop-and-copy
// downtime of a live migration of the VM backing this tier. Overlapping
// pauses nest; service resumes when the last one expires.
func (q *PSQueue) Pause(seconds float64) {
	if seconds <= 0 {
		return
	}
	q.advance()
	q.paused++
	q.capacity = minCapacity
	q.reschedule()
	q.sim.After(seconds, q.resumeFn)
}

// resume ends one pause.
func (q *PSQueue) resume() {
	q.advance()
	q.paused--
	if q.paused == 0 {
		q.capacity = q.desired
	}
	q.reschedule()
}

// Len returns the number of jobs in service.
func (q *PSQueue) Len() int { return len(q.jobs) }

// BusyCycles returns the cumulative work served in GHz·s, for utilization
// accounting.
func (q *PSQueue) BusyCycles() float64 {
	q.advance()
	return q.busyCycles
}

// SetCapacity changes the service capacity, crediting work done so far.
// During a pause the new capacity takes effect when service resumes.
func (q *PSQueue) SetCapacity(capacityGHz float64) {
	q.advance()
	q.desired = clampCapacity(capacityGHz)
	if q.paused == 0 {
		q.capacity = q.desired
	}
	q.reschedule()
}

// Submit enqueues a request with the given service demand (GHz·s) and
// calls done when it completes.
func (q *PSQueue) Submit(demand float64, done func()) {
	q.advance()
	// `demand <= 0` alone is a NaN hole: every comparison with NaN is
	// false, so a NaN demand used to poison vfinish and silently corrupt
	// the job heap's ordering. `!(demand > 0)` catches NaN, zero, and
	// negatives alike; +Inf needs its own check.
	if !(demand > 0) || math.IsInf(demand, 1) {
		demand = 1e-9
	}
	q.push(job{vfinish: q.vnow + demand, done: done})
	q.reschedule()
}

// push and pop are container/heap's Push and Pop over the value-typed
// job slice, specialised. The sifts move a hole instead of swapping,
// which makes the same comparisons in the same order and leaves the
// same layout: jobs with equal vfinish (deterministic demands) must
// leave in container/heap's order, or every same-seed golden would
// change.
func (q *PSQueue) push(j job) {
	q.jobs = append(q.jobs, j)
	h := q.jobs
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(j.vfinish < h[p].vfinish) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = j
}

func (q *PSQueue) pop() job {
	h := q.jobs
	n := len(h) - 1
	top, last := h[0], h[n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].vfinish < h[c].vfinish {
			c = r
		}
		if !(h[c].vfinish < last.vfinish) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	h[n] = job{}
	q.jobs = h[:n]
	return top
}

// advance moves the virtual clock forward to the present: each in-service
// job has received (elapsed × capacity / n) further GHz·s of work.
func (q *PSQueue) advance() {
	now := q.sim.Now()
	dt := now - q.lastUpdate
	q.lastUpdate = now
	if dt <= 0 || len(q.jobs) == 0 {
		return
	}
	q.vnow += dt * q.capacity / float64(len(q.jobs))
	q.busyCycles += dt * q.capacity
}

// reschedule re-arms the next-completion timer. A re-arm that lands at
// the exact time already armed is coalesced into a no-op: Submit and
// SetCapacity churn would otherwise draw a fresh sequence number on
// every call, reordering the completion behind same-instant work and —
// once the completion time collapses onto the current instant — feeding
// the same-timestamp storm of DESIGN §14.
func (q *PSQueue) reschedule() {
	if len(q.jobs) == 0 {
		q.next.Stop()
		return
	}
	remaining := q.jobs[0].vfinish - q.vnow
	if remaining < 0 {
		remaining = 0
	}
	at := q.sim.Now() + remaining*float64(len(q.jobs))/q.capacity
	//lint:ignore floatcompare coalescing only the bit-identical re-arm; an epsilon would drop genuinely distinct re-arms
	if q.next.Pending() && q.next.Time() == at {
		return
	}
	q.next.Reset(at)
}

// complete retires every job whose virtual finish time has been reached.
// The kernel has disarmed the timer before calling it.
func (q *PSQueue) complete() {
	q.advance()
	const eps = 1e-12
	finished := q.finished[:0]
	for len(q.jobs) > 0 && q.jobs[0].vfinish <= q.vnow+eps {
		finished = append(finished, q.pop().done)
	}
	// Zeno guard (DESIGN §14). At large sim times the head job's
	// remaining virtual work can sit above eps while its ETA is below one
	// ulp of the clock: the completion event then re-arms at this exact
	// instant, advance() sees dt == 0, and the loop never terminates.
	// When the ETA cannot move the clock, the work is below the
	// simulation's time resolution — treat it as done: snap the virtual
	// clock forward to the head's finish (a monotone minimum advance) and
	// retire every job that releases. Each complete pass therefore either
	// retires a job or schedules strictly later.
	if len(finished) == 0 && len(q.jobs) > 0 {
		now := q.sim.Now()
		remaining := q.jobs[0].vfinish - q.vnow
		if remaining < 0 {
			remaining = 0
		}
		//lint:ignore floatcompare detecting that the ETA underflows the clock's resolution requires the exact comparison
		if now+remaining*float64(len(q.jobs))/q.capacity == now {
			q.vnow = q.jobs[0].vfinish
			for len(q.jobs) > 0 && q.jobs[0].vfinish <= q.vnow+eps {
				finished = append(finished, q.pop().done)
			}
		}
	}
	q.reschedule()
	for _, done := range finished {
		done()
	}
	q.finished = finished[:0]
}
