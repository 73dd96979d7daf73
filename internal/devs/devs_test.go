package devs

import (
	"fmt"
	"math"
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

// Stopping an armed timer cancels its firing.
func TestCancel(t *testing.T) {
	s := NewSimulator()
	fired := false
	tm := s.NewTimer("t", func() { fired = true })
	if tm.Pending() {
		t.Fatal("a new timer is armed")
	}
	tm.Reset(1)
	if !tm.Pending() || tm.Time() != 1 || s.Pending() != 1 {
		t.Fatalf("after Reset: Pending() = %v, Time() = %v, sim Pending = %d", tm.Pending(), tm.Time(), s.Pending())
	}
	tm.Stop()
	if tm.Pending() || s.Pending() != 0 {
		t.Fatalf("after Stop: Pending() = %v, sim Pending = %d", tm.Pending(), s.Pending())
	}
	if tm.Time() != 1 {
		t.Fatalf("Time() = %v after Stop, want 1", tm.Time())
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestCancelDoesNotBlockOthers(t *testing.T) {
	s := NewSimulator()
	fired := 0
	tm := s.NewTimer("t", func() { fired++ })
	tm.Reset(1)
	s.Schedule(1, func() { fired++ })
	s.NewTimer("u", func() { fired++ }).Reset(1)
	tm.Stop()
	s.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// A Reset draws a fresh sequence number, so it orders among ties exactly
// as cancelling the timer and scheduling anew would: behind everything
// queued before it, ahead of everything queued after.
func TestTimerResetOrdersLikeSchedule(t *testing.T) {
	s := NewSimulator()
	var order []string
	tm := s.NewTimer("t", func() { order = append(order, "timer") })
	tm.Reset(5)
	s.Schedule(5, func() { order = append(order, "a") })
	tm.Reset(5) // same instant, fresh sequence number: now behind a
	s.Schedule(5, func() { order = append(order, "b") })
	s.Run()
	if got := fmt.Sprint(order); got != "[a timer b]" {
		t.Fatalf("order = %s, want [a timer b]", got)
	}
}

// Reset moves an armed timer in place, earlier or later, and never
// queues a second entry for it.
func TestTimerResetMovesArmedTimer(t *testing.T) {
	s := NewSimulator()
	var fired []float64
	timers := make([]*Timer, 8)
	for i := range timers {
		timers[i] = s.NewTimer("t", func() { fired = append(fired, s.Now()) })
		timers[i].Reset(float64(10 + i))
	}
	timers[7].Reset(1)  // latest to earliest
	timers[0].Reset(20) // earliest to latest
	timers[4].Reset(14) // in place
	if s.Pending() != len(timers) {
		t.Fatalf("Pending = %d, want %d", s.Pending(), len(timers))
	}
	s.Run()
	want := []float64{1, 11, 12, 13, 14, 15, 16, 20}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

// A timer is disarmed before its callback runs, so the callback sees it
// idle and may re-arm it.
func TestTimerRearmsFromItsCallback(t *testing.T) {
	s := NewSimulator()
	var times []float64
	var tm *Timer
	tm = s.NewTimer("tick", func() {
		if tm.Pending() {
			t.Fatal("timer still armed inside its callback")
		}
		times = append(times, s.Now())
		if len(times) < 4 {
			tm.Reset(s.Now() + 2)
		}
	})
	tm.Reset(1)
	s.Run()
	if fmt.Sprint(times) != "[1 3 5 7]" {
		t.Fatalf("timer fired at %v, want [1 3 5 7]", times)
	}
	if tm.Pending() || s.Pending() != 0 {
		t.Fatal("timer still armed after the run")
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
	tm := s.NewTimer("t", func() {})
	tm.Reset(6)
	for name, queue := range map[string]func(){
		"schedule past": func() { s.Schedule(1, func() {}) },
		"schedule NaN":  func() { s.Schedule(math.NaN(), func() {}) },
		"reset past":    func() { tm.Reset(1) },
		"reset NaN":     func() { tm.Reset(math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			queue()
		}()
	}
	// A rejected Reset leaves an armed timer where it was.
	if !tm.Pending() || tm.Time() != 6 || s.Pending() != 1 {
		t.Fatalf("after rejected Resets: Pending() = %v Time() = %v sim Pending = %d", tm.Pending(), tm.Time(), s.Pending())
	}
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
	s.NewTimer("t", func() {}).Reset(2)
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
