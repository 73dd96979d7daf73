package devs

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"vdcpower/internal/race"
)

// A zero budget must be indistinguishable from RunUntil.
func TestRunUntilBudgetZeroBudgetMatchesRunUntil(t *testing.T) {
	runOrder := func(drain func(s *Simulator)) []float64 {
		s := NewSimulator()
		rng := rand.New(rand.NewSource(11))
		var fired []float64
		for i := 0; i < 500; i++ {
			s.Schedule(rng.Float64()*100, func() { fired = append(fired, s.Now()) })
		}
		drain(s)
		return fired
	}
	plain := runOrder(func(s *Simulator) { s.RunUntil(200) })
	budgeted := runOrder(func(s *Simulator) {
		st, err := s.RunUntilBudget(200, Budget{})
		if err != nil {
			t.Fatalf("zero budget tripped: %v", err)
		}
		if st.Events != 500 {
			t.Fatalf("Events = %d, want 500", st.Events)
		}
	})
	if len(plain) != len(budgeted) {
		t.Fatalf("fired %d vs %d events", len(plain), len(budgeted))
	}
	for i := range plain {
		if plain[i] != budgeted[i] {
			t.Fatalf("order diverged at %d: %v vs %v", i, plain[i], budgeted[i])
		}
	}
}

func TestRunUntilBudgetMaxEventsTrip(t *testing.T) {
	s := NewSimulator()
	fired := 0
	for i := 0; i < 100; i++ {
		s.NewTimer("tick", func() { fired++ }).Reset(float64(i))
	}
	st, err := s.RunUntilBudget(1000, Budget{MaxEvents: 10})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err is not *BudgetError: %v", err)
	}
	if be.Reason != ReasonMaxEvents {
		t.Fatalf("Reason = %q", be.Reason)
	}
	if fired != 10 || st.Events != 10 || be.Events != 10 {
		t.Fatalf("fired=%d st.Events=%d be.Events=%d, want 10", fired, st.Events, be.Events)
	}
	if be.At != 9 {
		t.Fatalf("At = %v, want 9 (last fired event)", be.At)
	}
	if be.Pending != 90 {
		t.Fatalf("Pending = %d, want 90", be.Pending)
	}
	if len(be.Sample) != sampleSize {
		t.Fatalf("Sample size = %d, want %d", len(be.Sample), sampleSize)
	}
	for i, p := range be.Sample {
		if p.Label != "tick" || p.Time != float64(10+i) {
			t.Fatalf("Sample[%d] = %+v, want tick@%d", i, p, 10+i)
		}
	}
	if !strings.Contains(be.Error(), "tick@") {
		t.Fatalf("Error() lacks provenance: %s", be.Error())
	}
	// The drain is resumable: finishing without a budget fires the rest.
	if _, err := s.RunUntilBudget(1000, Budget{}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if fired != 100 {
		t.Fatalf("fired = %d after resume, want 100", fired)
	}
}

// A bound reached on the drain's very last event is not an overrun.
func TestRunUntilBudgetNoTripOnFinalEvent(t *testing.T) {
	s := NewSimulator()
	for i := 0; i < 10; i++ {
		s.Schedule(float64(i), func() {})
	}
	st, err := s.RunUntilBudget(1000, Budget{MaxEvents: 10})
	if err != nil {
		t.Fatalf("tripped on final event: %v", err)
	}
	if st.Events != 10 {
		t.Fatalf("Events = %d", st.Events)
	}
	if s.Now() != 1000 {
		t.Fatalf("Now = %v, want horizon 1000", s.Now())
	}
}

// A stopped timer inside the horizon is not queued work: a bound
// reached on the last live event must not trip because of it.
func TestRunUntilBudgetNoTripOnCancelledTail(t *testing.T) {
	s := NewSimulator()
	for i := 0; i < 3; i++ {
		s.Schedule(float64(i), func() {})
	}
	tm := s.NewTimer("t", func() {})
	tm.Reset(5)
	tm.Stop()
	for _, b := range []Budget{{MaxEvents: 3}, {MaxSameTimeEvents: 1}} {
		if _, err := s.RunUntilBudget(10, b); err != nil {
			t.Fatalf("budget %+v tripped on a cancelled event: %v", b, err)
		}
	}
	if s.Now() != 10 || s.Pending() != 0 {
		t.Fatalf("Now = %v Pending = %d, want 10 and 0", s.Now(), s.Pending())
	}
}

// A self-rescheduling event at the current instant is the Zeno-storm
// signature; the same-time bound must cut it off.
func TestRunUntilBudgetSameTimeTrip(t *testing.T) {
	s := NewSimulator()
	fired := 0
	var storm *Timer
	storm = s.NewTimer("storm", func() {
		fired++
		storm.Reset(s.Now())
	})
	storm.Reset(1)
	st, err := s.RunUntilBudget(10, Budget{MaxSameTimeEvents: 50})
	var be *BudgetError
	if !errors.As(err, &be) || be.Reason != ReasonSameTime {
		t.Fatalf("err = %v, want same-time trip", err)
	}
	if len(be.Sample) != 1 || be.Sample[0] != (PendingEvent{Time: 1, Label: "storm"}) {
		t.Fatalf("Sample = %+v, want [storm@1]", be.Sample)
	}
	if st.SameTime < 50 {
		t.Fatalf("SameTime = %d, want >= 50", st.SameTime)
	}
	if s.Now() != 1 {
		t.Fatalf("Now = %v, want stuck at 1", s.Now())
	}
	if fired > 51 {
		t.Fatalf("fired %d events before trip", fired)
	}
}

// Distinct timestamps never trip the same-time bound, however many there are.
func TestRunUntilBudgetSameTimeIgnoresAdvancingClock(t *testing.T) {
	s := NewSimulator()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < 1000 {
			s.After(1e-9, chain)
		}
	}
	s.Schedule(0, chain)
	if _, err := s.RunUntilBudget(1, Budget{MaxSameTimeEvents: 2}); err != nil {
		t.Fatalf("advancing chain tripped same-time bound: %v", err)
	}
	if n != 1000 {
		t.Fatalf("n = %d", n)
	}
}

func TestRunUntilBudgetInterrupt(t *testing.T) {
	s := NewSimulator()
	for i := 0; i < 1000; i++ {
		s.Schedule(float64(i), func() {})
	}
	polls := 0
	st, err := s.RunUntilBudget(1e6, Budget{Interrupt: func() bool {
		polls++
		return polls >= 2
	}})
	var be *BudgetError
	if !errors.As(err, &be) || be.Reason != ReasonInterrupt {
		t.Fatalf("err = %v, want interrupt trip", err)
	}
	if st.Events != 2*interruptEvery {
		t.Fatalf("Events = %d, want %d (two poll intervals)", st.Events, 2*interruptEvery)
	}
}

// Heavy re-arm churn must not bloat the queue. A timer moves in place,
// so Pending() counts exactly the live work and the timer heap holds one
// entry per armed timer, however often each is reset or stopped, as
// PSQueue re-arms are.
func TestCancelChurnKeepsPendingBounded(t *testing.T) {
	s := NewSimulator()
	var fired []float64
	tm := s.NewTimer("t", func() { fired = append(fired, s.Now()) })
	const churn = 100_000
	for i := 0; i < churn; i++ {
		if i%3 == 0 {
			tm.Stop()
		}
		tm.Reset(float64(i + 1))
		if p := s.Pending(); p != 1 {
			t.Fatalf("Pending = %d after %d re-arms, want 1", p, i)
		}
	}
	if n := cap(s.timers); n > 1 {
		t.Fatalf("timer heap grew to %d entries under re-arm churn", n)
	}
	s.Run()
	if len(fired) != 1 || fired[0] != churn {
		t.Fatalf("fired %v, want only the last arming at %d", fired, churn)
	}
}

// Stopping a random two-thirds of the armed timers must leave the
// survivors firing in exactly (time, arming order) order.
func TestPurgePreservesOrder(t *testing.T) {
	s := NewSimulator()
	rng := rand.New(rand.NewSource(3))
	type ev struct {
		at float64
		id int
	}
	var timers []*Timer
	var want, fired []ev
	for i := 0; i < 2000; i++ {
		at := float64(rng.Intn(500)) / 5 // coarse grid: plenty of ties
		id := i
		tm := s.NewTimer("t", func() { fired = append(fired, ev{s.Now(), id}) })
		tm.Reset(at)
		timers = append(timers, tm)
		if i%3 == 0 {
			want = append(want, ev{at, id})
		}
	}
	for i, tm := range timers {
		if i%3 != 0 {
			tm.Stop()
		}
	}
	if s.Pending() != len(want) {
		t.Fatalf("Pending = %d, want %d survivors", s.Pending(), len(want))
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	s.Run()
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing %d = %+v, want %+v", i, fired[i], want[i])
		}
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	s := NewSimulator()
	fired := 0
	tm := s.NewTimer("t", func() { fired++ })
	tm.Reset(1)
	other := s.NewTimer("u", func() { fired++ })
	other.Reset(2)
	tm.Stop()
	tm.Stop() // double-stop must not remove anything else
	if s.Pending() != 1 || !other.Pending() {
		t.Fatalf("Pending = %d, other armed %v; want 1, true", s.Pending(), other.Pending())
	}
	// A fired timer is idle: stopping it must not reach the timer that
	// took its heap position.
	third := s.NewTimer("v", func() { fired++ })
	third.Reset(3)
	s.Step()
	other.Stop()
	if s.Pending() != 1 || !third.Pending() {
		t.Fatalf("stopping a fired timer touched another: Pending = %d", s.Pending())
	}
	s.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// The budget-error sample is the earliest pending work in firing order,
// across one-shot events and timers, whatever the heap layouts.
func TestBudgetErrorSampleIsEarliestInFiringOrder(t *testing.T) {
	s := NewSimulator()
	rng := rand.New(rand.NewSource(5))
	type pend struct {
		at    float64
		seq   int
		label string
	}
	var want []pend
	seq := 0
	for i := 0; i < 200; i++ {
		at := 1 + float64(rng.Intn(40))/4
		if rng.Intn(2) == 0 {
			s.Schedule(at, func() {})
			want = append(want, pend{at, seq, ""})
		} else {
			label := fmt.Sprintf("t%d", i)
			s.NewTimer(label, func() {}).Reset(at)
			want = append(want, pend{at, seq, label})
		}
		seq++
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	s.Schedule(0.5, func() {})
	_, err := s.RunUntilBudget(100, Budget{MaxEvents: 1})
	var be *BudgetError
	if !errors.As(err, &be) || be.Pending != len(want) {
		t.Fatalf("err = %v, want a max-events trip with %d pending", err, len(want))
	}
	for i, p := range be.Sample {
		if p.Time != want[i].at || p.Label != want[i].label {
			t.Fatalf("Sample[%d] = %+v, want %s@%v", i, p, want[i].label, want[i].at)
		}
	}
	if len(be.Sample) != sampleSize {
		t.Fatalf("Sample size = %d, want %d", len(be.Sample), sampleSize)
	}
}

// A warmed Schedule→fire cycle, and a Reset/Stop/fire cycle of timers
// including one that re-arms from its own callback, allocate nothing:
// both heaps are reused and entries are values.
func TestScheduleFireZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gate not meaningful under -race")
	}
	s := NewSimulator()
	fn := func() {}
	tm := s.NewTimer("x", fn)
	rearms := 0
	var self *Timer
	self = s.NewTimer("self", func() {
		if rearms++; rearms%2 == 1 {
			self.Reset(s.Now())
		}
	})
	cycle := func() {
		s.After(1, fn)
		tm.Reset(s.Now() + 2)
		tm.Reset(s.Now() + 1) // move while armed
		tm.Stop()
		tm.Reset(s.Now() + 0.5) // arm while idle
		self.Reset(s.Now() + 1)
		for s.Step() {
		}
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("Schedule/Reset/Stop/fire cycle allocated %v times, want 0", n)
	}
}

// Acceptance: the budget check on the hot drain path adds no allocations.
// testing.AllocsPerRun's warm-up call would empty the heap before the
// measured run, so this measures one real drain via MemStats instead.
func TestRunUntilBudgetDrainZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gate not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := NewSimulator()
	at := 0.0
	fn := func() {}
	budget := Budget{MaxEvents: 1 << 30, MaxSameTimeEvents: 1 << 30}
	fill := func() {
		for i := 0; i < 256; i++ {
			at++
			s.Schedule(at, fn)
		}
	}
	// Warm up so the heap's backing array reaches steady-state capacity.
	for r := 0; r < 3; r++ {
		fill()
		if _, err := s.RunUntilBudget(at, budget); err != nil {
			t.Fatal(err)
		}
	}
	fill()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := s.RunUntilBudget(at, budget); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if d := after.Mallocs - before.Mallocs; d != 0 {
		t.Fatalf("budgeted drain of 256 events allocated %d times, want 0", d)
	}
}

// A warmed budgeted drain of a parent with domains allocates nothing:
// the fold walks the domains in place and only a trip builds an error.
func TestRunUntilBudgetDomainsDrainZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gate not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	parent := NewSimulator()
	domains := []*Simulator{parent, parent.NewDomain(), parent.NewDomain(), parent.NewDomain()}
	at := 0.0
	fn := func() {}
	budget := Budget{MaxEvents: 1 << 30, MaxSameTimeEvents: 1 << 30, Interrupt: func() bool { return false }}
	fill := func() {
		for i := 0; i < 64; i++ {
			at++
			for _, d := range domains {
				d.Schedule(at, fn)
			}
		}
	}
	for r := 0; r < 3; r++ {
		fill()
		if _, err := parent.RunUntilBudget(at, budget); err != nil {
			t.Fatal(err)
		}
	}
	fill()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, err := parent.RunUntilBudget(at, budget)
	runtime.ReadMemStats(&after)
	if err != nil || st.Events != 4*64 {
		t.Fatalf("drain: %+v, %v", st, err)
	}
	if d := after.Mallocs - before.Mallocs; d != 0 {
		t.Fatalf("budgeted drain over 4 domains allocated %d times, want 0", d)
	}
}
