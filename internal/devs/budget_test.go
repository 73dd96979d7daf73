package devs

import (
	"errors"
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
		s.Schedule(float64(i), func() { fired++ }).SetLabel("tick")
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
	for _, p := range be.Sample {
		if p.Label != "tick" {
			t.Fatalf("Sample label = %q, want tick", p.Label)
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

// A cancelled event inside the horizon is not queued work: a bound
// reached on the last live event must not trip because of it.
func TestRunUntilBudgetNoTripOnCancelledTail(t *testing.T) {
	s := NewSimulator()
	for i := 0; i < 3; i++ {
		s.Schedule(float64(i), func() {})
	}
	s.Schedule(5, func() {}).Cancel()
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
	var storm func()
	storm = func() {
		fired++
		s.Schedule(s.Now(), storm).SetLabel("storm")
	}
	s.Schedule(1, storm)
	st, err := s.RunUntilBudget(10, Budget{MaxSameTimeEvents: 50})
	var be *BudgetError
	if !errors.As(err, &be) || be.Reason != ReasonSameTime {
		t.Fatalf("err = %v, want same-time trip", err)
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

// Heavy cancel churn must not bloat the queue. Cancel removes eagerly,
// so Pending() counts exactly the live events and the slab recycles the
// cancelled slots instead of growing, even when most scheduled events are
// cancelled before firing, as PSQueue re-arms are.
func TestCancelChurnKeepsPendingBounded(t *testing.T) {
	s := NewSimulator()
	var fired []float64
	var prev Event
	const churn = 100_000
	for i := 0; i < churn; i++ {
		prev.Cancel()
		prev = s.Schedule(float64(i+1), func() { fired = append(fired, s.Now()) })
		if p := s.Pending(); p != 1 {
			t.Fatalf("Pending = %d after %d cancels, want 1", p, i)
		}
	}
	if n := len(s.slab); n > 2 {
		t.Fatalf("slab grew to %d slots under cancel churn", n)
	}
	s.Run()
	if len(fired) != 1 || fired[0] != churn {
		t.Fatalf("fired %v, want only the survivor at %d", fired, churn)
	}
}

// Cancelling a random two-thirds of the queue must leave the survivors
// firing in exactly (time, scheduling order) order.
func TestPurgePreservesOrder(t *testing.T) {
	s := NewSimulator()
	rng := rand.New(rand.NewSource(3))
	type ev struct {
		at float64
		id int
	}
	var events []Event
	var want, fired []ev
	for i := 0; i < 2000; i++ {
		at := float64(rng.Intn(500)) / 5 // coarse grid: plenty of ties
		id := i
		events = append(events, s.Schedule(at, func() { fired = append(fired, ev{s.Now(), id}) }))
		if i%3 == 0 {
			want = append(want, ev{at, id})
		}
	}
	for i, e := range events {
		if i%3 != 0 {
			e.Cancel()
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
	e := s.Schedule(1, func() { fired++ })
	s.Schedule(2, func() { fired++ })
	e.Cancel()
	e.Cancel() // double-cancel must not remove anything else
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	// The cancelled slot is recycled by the next Schedule; the stale
	// handle must not reach the new occupant.
	s.Schedule(3, func() { fired++ })
	e.Cancel()
	e.SetLabel("stale")
	if e.Pending() || s.Pending() != 2 {
		t.Fatalf("stale handle touched the recycled slot: Pending = %d", s.Pending())
	}
	s.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// A warmed Schedule→fire cycle allocates nothing: the slab and heap are
// reused, and the handle is a value.
func TestScheduleFireZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gate not meaningful under -race")
	}
	s := NewSimulator()
	fn := func() {}
	cycle := func() {
		s.After(1, fn).SetLabel("x")
		s.After(2, fn).Cancel()
		s.After(1, fn)
		s.Step()
		s.Step()
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("Schedule/Cancel/fire cycle allocated %v times, want 0", n)
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
