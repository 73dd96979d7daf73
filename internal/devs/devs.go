// Package devs is a small discrete-event simulation kernel: a virtual
// clock and a priority queue of callbacks. It underlies the multi-tier
// application simulator that stands in for the paper's Xen/RUBBoS testbed.
//
// Work is queued in two forms. Schedule and After queue one-shot,
// fire-and-forget callbacks. A Timer is a re-armable event: Reset moves
// it to a new time and Stop disarms it, which is how a PS queue keeps its
// single next-completion event current without queueing dead entries.
//
// Determinism: every Schedule and every Reset draws a sequence number
// from one counter, and queued work fires in (time, sequence) order, so
// events at equal timestamps fire in scheduling order and a simulation
// driven by seeded randomness is fully reproducible.
//
// Domains: NewDomain gives a simulator a child with its own clock,
// sequence counter and heaps, and the parent's RunUntilBudget drains
// every domain to the same horizon, at once on a pool of helper
// goroutines, and folds their results in creation order. Work that
// touches nothing outside its domain during a drain, such as one
// application of the simulated testbed between control periods, fires in
// the same order as on one shared simulator: within a domain both
// counters are drawn in the same scheduling order, whichever goroutine
// drains it. Each drain only pays for the heaps of its own domain. The
// pool grows to GOMAXPROCS−1 helpers and lives as long as the process,
// so a drain starts no goroutine and allocates nothing; at GOMAXPROCS 1
// none starts and the domains drain in turn.
//
// Allocation: one-shot events are plain (time, seq, fn) entries of a
// binary heap, and armed timers sit in a second, indexed binary heap, so
// once both heaps have reached their high-water mark, scheduling,
// re-arming and firing allocate nothing. A callback that is a method
// value or closure bound once by the caller keeps the whole cycle
// allocation-free.
package devs

// key orders queued work: by virtual time, then by the sequence number
// drawn when the work was queued.
type key struct {
	at  float64
	seq uint64
}

// before orders keys by (time, seq). seq is unique across a simulator's
// two queues, so this is a strict total order on any non-NaN times, and
// any correct pair of heaps over it fires work in exactly one sequence.
func (a key) before(b key) bool {
	//lint:ignore floatcompare exact tie-break in event ordering; an epsilon would reorder events
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// event is one queued one-shot callback.
type event struct {
	key
	fn func()
}

// armed is one armed timer's heap entry. The key is copied out of the
// timer so sift comparisons never leave the heap array.
type armed struct {
	key
	t *Timer
}

// Timer is a re-armable event, created by Simulator.NewTimer. While
// armed it sits in the simulator's timer heap; Reset moves it in place
// and Stop takes it out. A timer is disarmed before its callback runs,
// so the callback may re-arm it.
type Timer struct {
	sim   *Simulator
	fn    func()
	label string
	at    float64
	pos   int32 // position in the timer heap while armed, -1 while idle
}

// NewTimer returns an idle timer that runs fn when it fires. The label
// names its provenance ("psqueue.complete", ...) so a budget-exceeded
// error can report what a stuck queue is made of.
func (s *Simulator) NewTimer(label string, fn func()) *Timer {
	return &Timer{sim: s, fn: fn, label: label, pos: -1}
}

// Time returns the virtual time the timer was last armed for. It stays
// readable after the timer has fired or been stopped.
func (t *Timer) Time() float64 { return t.at }

// Pending reports whether the timer is armed: neither fired nor stopped
// since its last Reset.
func (t *Timer) Pending() bool { return t.pos >= 0 }

// Reset arms the timer for absolute time at, moving it if it is already
// armed. It draws a fresh sequence number, exactly as a Schedule would,
// so a Reset orders among ties as cancelling the timer and scheduling
// anew would. Arming in the past or at NaN panics, as Schedule does.
func (t *Timer) Reset(at float64) {
	s := t.sim
	k := s.nextKey(at)
	t.at = at
	it := armed{key: k, t: t}
	if t.pos < 0 {
		s.timers = append(s.timers, it)
		s.siftUpTimer(len(s.timers)-1, it)
		return
	}
	s.moveTimer(int(t.pos), it)
}

// Stop disarms the timer so it does not fire. Stopping an idle timer is
// a no-op. Stop draws no sequence number.
func (t *Timer) Stop() {
	if t.pos >= 0 {
		t.sim.removeTimer(int(t.pos))
	}
}

// Simulator owns a virtual clock and the pending work: a heap of one-shot
// events and a heap of armed timers, plus any child domains. The zero
// value is ready to use.
type Simulator struct {
	now     float64
	seq     uint64
	events  []event      // min-heap on key
	timers  []armed      // min-heap on key; each timer's pos tracks its entry
	domains []*Simulator // children, in creation order; s itself is domain zero
	fan     *fanout      // the drain of the domains; nil until the first NewDomain
}

// NewSimulator returns a simulator with the clock at zero.
func NewSimulator() *Simulator { return &Simulator{} }

// NewDomain returns a child simulator with its own clock, starting at
// s's, and its own sequence counter and heaps. Its work fires when s
// drains or steps, or when it is drained itself. Work queued in a domain
// must touch nothing outside it during a drain of s: the domains of one
// drain run at the same time on different goroutines, each to the
// drain's horizon, so work that breaks this rule is a data race, not
// just a reordering.
func (s *Simulator) NewDomain() *Simulator {
	d := &Simulator{now: s.now}
	s.domains = append(s.domains, d)
	if s.fan == nil {
		s.fan = &fanout{sim: s}
	}
	s.fan.results = append(s.fan.results, drained{})
	return d
}

// Now returns the current virtual time in seconds. A simulator with
// domains reads the earliest of its own and its domains' clocks after a
// drain or a Step.
func (s *Simulator) Now() float64 { return s.now }

// Pending returns the number of queued events plus armed timers, in s
// and every domain.
func (s *Simulator) Pending() int {
	n := len(s.events) + len(s.timers)
	for _, d := range s.domains {
		n += d.Pending()
	}
	return n
}

// nextKey validates at and draws the next sequence number. Queueing in
// the past or at NaN panics: either would silently reorder causality.
func (s *Simulator) nextKey(at float64) key {
	if !(at >= s.now) {
		//lint:ignore panicpolicy simulator invariant: scheduling into the past means a broken model
		panic("devs: scheduling event in the past")
	}
	k := key{at: at, seq: s.seq}
	s.seq++
	return k
}

// Schedule queues fn to run once at absolute time at. Scheduling in the
// past or at NaN panics.
func (s *Simulator) Schedule(at float64, fn func()) {
	e := event{key: s.nextKey(at), fn: fn}
	s.events = append(s.events, e)
	h := s.events
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p].key) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// After queues fn to run once, d seconds from now.
func (s *Simulator) After(d float64, fn func()) {
	s.Schedule(s.now+d, fn)
}

// Step fires the earliest pending event or timer across s and its
// domains, ties going to the first in domain order, and advances every
// clock that is behind to its time. It returns false if nothing is
// pending.
func (s *Simulator) Step() bool {
	q, at, ok := s.next()
	if !ok {
		return false
	}
	s.advance(at)
	q.fire()
	return true
}

// next returns the simulator holding the earliest pending work among s
// and its domains, and its time; ok is false when nothing is pending.
func (s *Simulator) next() (q *Simulator, at float64, ok bool) {
	q = s
	at, ok = s.peek()
	for _, d := range s.domains {
		if dq, dat, dok := d.next(); dok && (!ok || dat < at) {
			q, at, ok = dq, dat, true
		}
	}
	return q, at, ok
}

// advance moves every clock of s and its domains that is behind at up to
// at.
func (s *Simulator) advance(at float64) {
	s.now = max(s.now, at)
	for _, d := range s.domains {
		d.advance(at)
	}
}

// RunUntil fires everything pending with Time <= t and then advances the
// clock to exactly t. It is RunUntilBudget with no budget: the drain
// cannot be interrupted.
func (s *Simulator) RunUntil(t float64) {
	_, _ = s.RunUntilBudget(t, Budget{})
}

// Run drains the queues completely, across every domain.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// timerFirst reports whether the timer heap's top fires next: it is
// armed, and earlier by (time, seq) than any queued one-shot event.
func (s *Simulator) timerFirst() bool {
	return len(s.timers) > 0 && (len(s.events) == 0 || s.timers[0].before(s.events[0].key))
}

// peek returns the time of the earliest pending work; ok is false when
// nothing is pending.
func (s *Simulator) peek() (at float64, ok bool) {
	switch {
	case s.timerFirst():
		return s.timers[0].at, true
	case len(s.events) > 0:
		return s.events[0].at, true
	}
	return 0, false
}

// fire runs the earliest pending work, advancing the clock to it. At
// least one heap must be non-empty. A timer leaves its heap before its
// callback runs, so the callback may re-arm it.
func (s *Simulator) fire() {
	if s.timerFirst() {
		top := s.timers[0]
		s.removeTimer(0)
		s.now = top.at
		top.t.fn()
		return
	}
	top := s.events[0]
	s.popEvent()
	s.now = top.at
	top.fn()
}

// popEvent deletes the earliest one-shot event.
func (s *Simulator) popEvent() {
	h := s.events
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the callback reference
	h = h[:n]
	s.events = h
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c].key) {
			c = r
		}
		if !h[c].before(last.key) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
}

// removeTimer takes the timer at heap position pos out of the heap and
// marks it idle.
func (s *Simulator) removeTimer(pos int) {
	h := s.timers
	h[pos].t.pos = -1
	n := len(h) - 1
	last := h[n]
	h[n] = armed{}
	s.timers = h[:n]
	if pos < n {
		s.moveTimer(pos, last)
	}
}

// moveTimer settles it into the hole at position i, sifting up or down
// as its key requires.
func (s *Simulator) moveTimer(i int, it armed) {
	if i > 0 && it.before(s.timers[(i-1)/2].key) {
		s.siftUpTimer(i, it)
		return
	}
	h := s.timers
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c].key) {
			c = r
		}
		if !h[c].before(it.key) {
			break
		}
		h[i] = h[c]
		h[i].t.pos = int32(i)
		i = c
	}
	h[i] = it
	it.t.pos = int32(i)
}

// siftUpTimer settles it into the hole at position i, moving parents down
// until its place is found.
func (s *Simulator) siftUpTimer(i int, it armed) {
	h := s.timers
	for i > 0 {
		p := (i - 1) / 2
		if !it.before(h[p].key) {
			break
		}
		h[i] = h[p]
		h[i].t.pos = int32(i)
		i = p
	}
	h[i] = it
	it.t.pos = int32(i)
}
