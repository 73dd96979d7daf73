// Package devs is a small discrete-event simulation kernel: a virtual
// clock and a priority queue of callbacks. It underlies the multi-tier
// application simulator that stands in for the paper's Xen/RUBBoS testbed.
//
// Determinism: events at equal timestamps fire in scheduling order, so a
// simulation driven by seeded randomness is fully reproducible.
//
// Allocation: events live in a value-typed slab recycled through a free
// list, and the queue is a binary heap of plain (time, seq, slot) items,
// so once the slab and heap have reached their high-water mark,
// scheduling and firing allocate nothing. A callback that is a method
// value or closure bound once by the caller keeps the whole
// Schedule→fire cycle allocation-free.
package devs

// Event is a handle to a scheduled callback, returned by Schedule and
// After. It is a small value; copy it freely. Every event carries a
// unique sequence number that doubles as its slot's generation: once the
// event fires or is cancelled its slot is recycled, the handle goes
// stale, and every method on it becomes a harmless no-op. The zero
// Event refers to no event.
type Event struct {
	sim *Simulator
	at  float64
	seq uint64
	idx int32
}

// Time returns the virtual time the event was scheduled for. It stays
// readable after the event has fired or been cancelled.
func (e Event) Time() float64 { return e.at }

// Pending reports whether the event is still queued: neither fired nor
// cancelled.
func (e Event) Pending() bool { return e.live() != nil }

// Cancel removes the event from the queue so it never fires. Cancelling
// a fired, cancelled or zero event is a no-op.
func (e Event) Cancel() {
	if sl := e.live(); sl != nil {
		e.sim.remove(int(sl.pos))
	}
}

// SetLabel names the event's provenance ("psqueue.complete", ...) so a
// budget-exceeded error can report what the stuck queue is made of. It
// is a no-op on a stale handle.
func (e Event) SetLabel(label string) {
	if sl := e.live(); sl != nil {
		sl.label = label
	}
}

// live returns the event's slab entry while the event is queued, nil
// once the handle is stale.
func (e Event) live() *slot {
	if e.sim == nil {
		return nil
	}
	sl := &e.sim.slab[e.idx]
	if sl.pos < 0 || sl.seq != e.seq {
		return nil
	}
	return sl
}

// slot is one slab entry: the payload of a queued event, or a link in
// the free list.
type slot struct {
	fn    func()
	label string
	seq   uint64 // sequence number of the current occupant
	pos   int32  // heap position while queued, -1 while free
	next  int32  // free-list link while free: 1 + next free index, 0 = end
}

// item is one heap entry. The ordering key is copied out of the slab so
// sift comparisons never leave the heap array.
type item struct {
	at  float64
	seq uint64
	idx int32
}

// before orders items by (time, seq). seq is unique, so this is a strict
// total order on any non-NaN times, and any correct heap over it pops
// events in exactly one sequence.
func (a item) before(b item) bool {
	//lint:ignore floatcompare exact tie-break in event ordering; an epsilon would reorder events
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Simulator owns a virtual clock and the pending event queue. The zero
// value is ready to use.
type Simulator struct {
	now  float64
	seq  uint64
	heap []item
	slab []slot
	free int32 // 1 + index of the first free slot; 0 when none
}

// NewSimulator returns a simulator with the clock at zero.
func NewSimulator() *Simulator { return &Simulator{} }

// Now returns the current virtual time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return len(s.heap) }

// Schedule queues fn to run at absolute time at. Scheduling in the past
// or at NaN panics: either would silently reorder causality.
func (s *Simulator) Schedule(at float64, fn func()) Event {
	if !(at >= s.now) {
		//lint:ignore panicpolicy simulator invariant: scheduling into the past means a broken model
		panic("devs: scheduling event in the past")
	}
	var idx int32
	if s.free != 0 {
		idx = s.free - 1
		s.free = s.slab[idx].next
	} else {
		idx = int32(len(s.slab))
		s.slab = append(s.slab, slot{})
	}
	seq := s.seq
	s.seq++
	sl := &s.slab[idx]
	sl.fn = fn
	sl.seq = seq
	it := item{at: at, seq: seq, idx: idx}
	s.heap = append(s.heap, it)
	s.siftUp(len(s.heap)-1, it)
	return Event{sim: s, at: at, seq: seq, idx: idx}
}

// After queues fn to run d seconds from now.
func (s *Simulator) After(d float64, fn func()) Event {
	return s.Schedule(s.now+d, fn)
}

// Step fires the earliest pending event, advancing the clock to its time.
// It returns false if the queue is empty.
func (s *Simulator) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	s.fire()
	return true
}

// RunUntil fires every event with Time <= t and then advances the clock
// to exactly t. It is RunUntilBudget with no budget: the drain cannot be
// interrupted.
func (s *Simulator) RunUntil(t float64) {
	_, _ = s.RunUntilBudget(t, Budget{})
}

// Run drains the queue completely.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// fire pops the earliest event, advances the clock to it and runs it.
// The slot is recycled before the callback runs, so an event that
// reschedules itself reuses its own slot.
func (s *Simulator) fire() {
	top := s.heap[0]
	fn := s.slab[top.idx].fn
	s.remove(0)
	s.now = top.at
	fn()
}

// remove deletes the heap entry at position pos and recycles its slot.
func (s *Simulator) remove(pos int) {
	idx := s.heap[pos].idx
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if pos < n {
		if pos > 0 && last.before(s.heap[(pos-1)/2]) {
			s.siftUp(pos, last)
		} else {
			s.siftDown(pos, last)
		}
	}
	sl := &s.slab[idx]
	sl.fn = nil
	sl.label = ""
	sl.pos = -1
	sl.next = s.free
	s.free = idx + 1
}

// siftUp settles it into the hole at position i, moving parents down
// until its place is found.
func (s *Simulator) siftUp(i int, it item) {
	h := s.heap
	for i > 0 {
		p := (i - 1) / 2
		if !it.before(h[p]) {
			break
		}
		h[i] = h[p]
		s.slab[h[i].idx].pos = int32(i)
		i = p
	}
	h[i] = it
	s.slab[it.idx].pos = int32(i)
}

// siftDown settles it into the hole at position i, moving the smaller
// child up until its place is found.
func (s *Simulator) siftDown(i int, it item) {
	h := s.heap
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(it) {
			break
		}
		h[i] = h[c]
		s.slab[h[i].idx].pos = int32(i)
		i = c
	}
	h[i] = it
	s.slab[it.idx].pos = int32(i)
}
