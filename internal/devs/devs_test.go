package devs

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunOrder(t *testing.T) {
	s := NewSimulator()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 3 {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	s := NewSimulator()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := NewSimulator()
	var at float64
	s.Schedule(10, func() {
		s.After(5, func() { at = s.Now() })
	})
	s.Run()
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestCancel(t *testing.T) {
	s := NewSimulator()
	fired := false
	e := s.Schedule(1, func() { fired = true })
	if !e.Pending() || e.Time() != 1 {
		t.Fatalf("before Cancel: Pending() = %v, Time() = %v", e.Pending(), e.Time())
	}
	e.Cancel()
	if e.Pending() {
		t.Fatal("Pending() = true after Cancel")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelDoesNotBlockOthers(t *testing.T) {
	s := NewSimulator()
	fired := 0
	e := s.Schedule(1, func() { fired++ })
	s.Schedule(1, func() { fired++ })
	e.Cancel()
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := NewSimulator()
	fired := 0
	s.Schedule(1, func() { fired++ })
	s.Schedule(5, func() { fired++ })
	s.RunUntil(3)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Now() != 3 {
		t.Fatalf("Now = %v, want 3", s.Now())
	}
	s.RunUntil(10)
	if fired != 2 || s.Now() != 10 {
		t.Fatalf("fired = %d Now = %v", fired, s.Now())
	}
}

func TestRunUntilDoesNotRewindClock(t *testing.T) {
	s := NewSimulator()
	s.Schedule(5, func() {})
	s.Run()
	s.RunUntil(2) // in the past: must be a no-op for the clock
	if s.Now() != 5 {
		t.Fatalf("Now = %v, want 5", s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewSimulator()
	s.Schedule(5, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Schedule(1, func() {})
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := NewSimulator()
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := NewSimulator()
	var times []float64
	var chain func()
	n := 0
	chain = func() {
		times = append(times, s.Now())
		n++
		if n < 5 {
			s.After(2, chain)
		}
	}
	s.Schedule(1, chain)
	s.Run()
	want := []float64{1, 3, 5, 7, 9}
	for i, w := range want {
		if times[i] != w {
			t.Fatalf("times = %v", times)
		}
	}
}

func TestPending(t *testing.T) {
	s := NewSimulator()
	s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending after Run = %d", s.Pending())
	}
}

// Property: random schedules always fire in nondecreasing time order.
func TestRandomScheduleOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSimulator()
		n := 1 + rng.Intn(200)
		times := make([]float64, n)
		var fired []float64
		for i := 0; i < n; i++ {
			at := rng.Float64() * 100
			times[i] = at
			s.Schedule(at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != n {
			return false
		}
		sort.Float64s(times)
		for i := range fired {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun1k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSimulator()
		rng := rand.New(rand.NewSource(9))
		for j := 0; j < 1000; j++ {
			s.Schedule(rng.Float64()*1000, func() {})
		}
		s.Run()
	}
}
