package devs

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// fuzzWorld is one side of FuzzDomainsMatchStandalone: a set of queues,
// each with its timers, the trace of what fired in it and how often.
// Queue 0 is the parent's own queue and queue i its i-th domain, or, on
// the reference side, standalone simulator i.
type fuzzWorld struct {
	sims   []*Simulator
	timers [][]*Timer
	trace  [][]string
	fired  []int
	events []int // one-shot events queued so far, per queue
}

func newFuzzWorld(sims []*Simulator) *fuzzWorld {
	n := len(sims)
	return &fuzzWorld{sims: sims, timers: make([][]*Timer, n), trace: make([][]string, n), fired: make([]int, n), events: make([]int, n)}
}

// fuzzFollowCap bounds the firings per queue that queue further work, so
// self-re-arming chains end.
const fuzzFollowCap = 300

// follow is the deterministic follow-up of one firing in queue q: a pure
// function of the firing's identity h, queued in q alone, so both worlds
// see identical requests while they fire identically. Follow-ups land at
// the current instant often, so same-instant runs occur.
func (w *fuzzWorld) follow(q int, h uint64) {
	w.fired[q]++
	if w.fired[q] > fuzzFollowCap {
		return
	}
	for n := int(h>>61) % 3; n > 0; n-- {
		h = h*6364136223846793005 + 1442695040888963407
		d := float64((h>>40)%4) * 0.5
		if ts := w.timers[q]; len(ts) > 0 && (h>>20)%3 == 0 {
			ts[int((h>>8)%uint64(len(ts)))].Reset(w.sims[q].Now() + d)
			continue
		}
		w.sims[q].After(d, w.event(q))
	}
}

// event returns the callback of the next one-shot event queued in q.
func (w *fuzzWorld) event(q int) func() {
	id := w.events[q]
	w.events[q]++
	return func() {
		w.trace[q] = append(w.trace[q], fmt.Sprintf("event %d at %v", id, w.sims[q].Now()))
		w.follow(q, uint64(q+1)*0x9E3779B97F4A7C15+uint64(id)*0xC2B2AE3D27D4EB4F)
	}
}

// newTimer adds a timer to queue q; every firing re-arms or queues work.
func (w *fuzzWorld) newTimer(q int) {
	id := len(w.timers[q])
	fires := uint64(0)
	w.timers[q] = append(w.timers[q], w.sims[q].NewTimer(fmt.Sprintf("q%d.t%d", q, id), func() {
		fires++
		w.trace[q] = append(w.trace[q], fmt.Sprintf("timer %d at %v", id, w.sims[q].Now()))
		w.follow(q, uint64(q+1)*0x165667B19E3779F9+uint64(id+1)*0x27D4EB2F165667C5+fires)
	}))
}

// fuzzBudget decodes a drain budget: none, or small MaxEvents and
// MaxSameTimeEvents bounds, or an interrupt at the first poll.
func fuzzBudget(arg byte) Budget {
	var b Budget
	if arg&1 != 0 {
		b.MaxEvents = 1 + int(arg>>2)%8
	}
	if arg&2 != 0 {
		b.MaxSameTimeEvents = 1 + int(arg>>5)%4
	}
	if arg == 0xff {
		b = Budget{Interrupt: func() bool { return true }}
	}
	return b
}

// mergedSample is the expected sample of an aggregate trip, built from
// each standalone's own sample: the earliest entries by time, then
// domain, then each standalone's firing order.
func mergedSample(refs []*Simulator) []PendingEvent {
	type entry struct {
		PendingEvent
		q, rank int
	}
	var all []entry
	for q, r := range refs {
		be := budgetError("", 0, DrainStats{}, []*Simulator{r}).(*BudgetError)
		for rank, p := range be.Sample {
			all = append(all, entry{p, q, rank})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Time < b.Time || b.Time < a.Time {
			return a.Time < b.Time
		}
		if a.q != b.q {
			return a.q < b.q
		}
		return a.rank < b.rank
	})
	var out []PendingEvent
	for _, e := range all[:min(sampleSize, len(all))] {
		out = append(out, e.PendingEvent)
	}
	return out
}

// FuzzDomainsMatchStandalone holds the domain kernel to its spec: each
// domain behaves exactly as a standalone simulator given the same
// operations, and the parent folds the domains' drains. The input's first
// byte picks 1–4 domains; each later pair of bytes is one operation on
// one queue (queue 0 is the parent's own work): schedule, after, timer
// new, reset and stop, or a drain of the parent under a decoded budget.
// Firings queue follow-up work and re-arm timers in their own queue.
//
// Work for queue 0 is queued at an absolute time from the standalone
// clock: after a tripped drain the parent's clock rests at the earliest
// domain clock, which may be behind its own queue's.
func FuzzDomainsMatchStandalone(f *testing.F) {
	f.Add([]byte{3, 0x00, 2, 0x09, 1, 0x12, 3, 0x1b, 0, 0x05, 4, 0x06, 0x03})
	f.Add([]byte{1, 0x02, 0, 0x0a, 0, 0x0b, 1, 0x13, 1, 0x0d, 0x01, 0x0e, 0x01, 0x16, 0xff})
	f.Add([]byte{2, 0x00, 0, 0x08, 0, 0x10, 0, 0x05, 7, 0x06, 0x22, 0x07, 0x02, 0x05, 0x00})
	f.Add([]byte{0, 0x08, 1, 0x00, 1, 0x0a, 2, 0x0b, 2, 0x06, 0x05, 0x06, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nq := 2 + int(data[0])%4
		parent := NewSimulator()
		domSims, refSims := []*Simulator{parent}, []*Simulator{NewSimulator()}
		for q := 1; q < nq; q++ {
			domSims = append(domSims, parent.NewDomain())
			refSims = append(refSims, NewSimulator())
		}
		dom, ref := newFuzzWorld(domSims), newFuzzWorld(refSims)
		for i := 1; i+1 < len(data) && i < 400; i += 2 {
			op, arg := data[i], data[i+1]
			q := int(op>>3) % nq
			d := float64(arg%8) * 0.5
			switch op % 8 {
			case 0, 1:
				if op%8 == 1 && q > 0 {
					dom.sims[q].After(d, dom.event(q))
					ref.sims[q].After(d, ref.event(q))
					break
				}
				at := ref.sims[q].Now() + d
				dom.sims[q].Schedule(at, dom.event(q))
				ref.sims[q].Schedule(at, ref.event(q))
			case 2:
				if len(ref.timers[q]) < 4 {
					dom.newTimer(q)
					ref.newTimer(q)
				}
			case 3, 4:
				if len(ref.timers[q]) == 0 {
					break
				}
				id := int(arg>>3) % len(ref.timers[q])
				if op%8 == 4 {
					dom.timers[q][id].Stop()
					ref.timers[q][id].Stop()
					break
				}
				at := ref.sims[q].Now() + d
				dom.timers[q][id].Reset(at)
				ref.timers[q][id].Reset(at)
			default:
				checkFoldedDrain(t, parent, ref.sims, parent.Now()+float64((op>>3)%8)*0.5, fuzzBudget(arg))
			}
			checkDomains(t, parent, dom, ref)
		}
		checkFoldedDrain(t, parent, ref.sims, parent.Now()+100, Budget{})
		checkDomains(t, parent, dom, ref)
	})
}

// checkFoldedDrain drains parent and every standalone to at under b,
// and checks the fold: Events summed, SameTime the maximum, the
// first standalone's error in domain order, or the aggregate MaxEvents
// trip when none tripped but together they overran.
func checkFoldedDrain(t *testing.T, parent *Simulator, refs []*Simulator, at float64, b Budget) {
	t.Helper()
	st, err := parent.RunUntilBudget(at, b)
	var want DrainStats
	var wantErr error
	for _, r := range refs {
		rs, rerr := r.RunUntilBudget(at, b)
		want.Events += rs.Events
		want.SameTime = max(want.SameTime, rs.SameTime)
		if wantErr == nil {
			wantErr = rerr
		}
	}
	if st != want {
		t.Fatalf("drain to %v under %+v: stats %+v, standalones fold to %+v", at, b, st, want)
	}
	if wantErr == nil && b.MaxEvents > 0 && want.Events > b.MaxEvents {
		pending := 0
		clock := refs[0].Now()
		for _, r := range refs {
			pending += r.Pending()
			clock = min(clock, r.Now())
		}
		wantErr = &BudgetError{Reason: ReasonMaxEvents, At: clock, Events: want.Events, SameTime: want.SameTime,
			Pending: pending, Sample: mergedSample(refs)}
	}
	if !reflect.DeepEqual(err, wantErr) {
		t.Fatalf("drain to %v under %+v: error %v, want %v", at, b, err, wantErr)
	}
}

// checkDomains compares the two worlds: each queue's trace, each domain's
// clock and pending work, and the parent's clock (the earliest standalone
// clock) and Pending (the sum).
func checkDomains(t *testing.T, parent *Simulator, dom, ref *fuzzWorld) {
	t.Helper()
	clock, pending := ref.sims[0].Now(), 0
	for q := range ref.sims {
		if !reflect.DeepEqual(dom.trace[q], ref.trace[q]) {
			t.Fatalf("queue %d fired\n%v\nstandalone fired\n%v", q, dom.trace[q], ref.trace[q])
		}
		clock = min(clock, ref.sims[q].Now())
		pending += ref.sims[q].Pending()
		if q > 0 && (dom.sims[q].Now() != ref.sims[q].Now() || dom.sims[q].Pending() != ref.sims[q].Pending()) {
			t.Fatalf("domain %d: clock %v pending %d, standalone %v and %d", q,
				dom.sims[q].Now(), dom.sims[q].Pending(), ref.sims[q].Now(), ref.sims[q].Pending())
		}
	}
	if parent.Now() != clock || parent.Pending() != pending {
		t.Fatalf("parent: clock %v pending %d, want earliest standalone clock %v and %d pending", parent.Now(), parent.Pending(), clock, pending)
	}
}

// Step fires the earliest work across the parent and its domains, ties
// in domain order with the parent's own work first, and brings every
// clock up to the fired time.
func TestStepAcrossDomains(t *testing.T) {
	parent := NewSimulator()
	a, b := parent.NewDomain(), parent.NewDomain()
	var fired []string
	note := func(name string, s *Simulator) func() {
		return func() { fired = append(fired, fmt.Sprintf("%s@%v", name, s.Now())) }
	}
	b.Schedule(1, note("b1", b))
	a.Schedule(1, note("a1", a))
	parent.Schedule(1, note("p1", parent))
	a.NewTimer("t", note("a2", a)).Reset(2)
	b.Schedule(3, note("b3", b))
	if parent.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", parent.Pending())
	}
	var clocks [][3]float64
	for parent.Step() {
		clocks = append(clocks, [3]float64{parent.Now(), a.Now(), b.Now()})
	}
	want := []string{"p1@1", "a1@1", "b1@1", "a2@2", "b3@3"}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i, c := range clocks {
		if c[0] != c[1] || c[1] != c[2] {
			t.Fatalf("after step %d clocks are %v, want all at the fired time", i, c)
		}
	}
	if parent.Now() != 3 {
		t.Fatalf("Now = %v, want 3", parent.Now())
	}
}

// A domain's clock starts at its parent's, and a tripped domain leaves
// the parent's clock at the earliest domain clock while every other
// domain reaches the horizon.
func TestDomainClocksAfterTrip(t *testing.T) {
	parent := NewSimulator()
	parent.RunUntil(5)
	a := parent.NewDomain()
	if a.Now() != 5 {
		t.Fatalf("new domain clock %v, want the parent's 5", a.Now())
	}
	b := parent.NewDomain()
	for i := 0; i < 4; i++ {
		a.Schedule(6+float64(i), func() {})
	}
	b.Schedule(7, func() {})
	st, err := parent.RunUntilBudget(20, Budget{MaxEvents: 2})
	var be *BudgetError
	if !errors.As(err, &be) || be.Reason != ReasonMaxEvents || be.At != 7 || be.Events != 2 || be.Pending != 2 {
		t.Fatalf("err = %v, want domain a's max-events trip at 7 with 2 pending", err)
	}
	if st.Events != 3 || a.Now() != 7 || b.Now() != 20 || parent.Now() != 7 {
		t.Fatalf("Events %d, clocks parent %v a %v b %v; want 3 and 7, 7, 20", st.Events, parent.Now(), a.Now(), b.Now())
	}
	if _, err := parent.RunUntilBudget(20, Budget{}); err != nil || parent.Now() != 20 || parent.Pending() != 0 {
		t.Fatalf("resume: err %v, Now %v, Pending %d", err, parent.Now(), parent.Pending())
	}
}
