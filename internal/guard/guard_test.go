package guard

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"vdcpower/internal/devs"
)

func TestDefaultStepBudget(t *testing.T) {
	b := DefaultStepBudget()
	if b.MaxEvents != DefaultMaxEvents || b.MaxSameTimeEvents != DefaultMaxSameTimeEvents || b.Wall != DefaultWall {
		t.Fatalf("DefaultStepBudget = %+v", b)
	}
}

func TestDevsBudgetLowering(t *testing.T) {
	interrupt := func() bool { return true }
	db := StepBudget{MaxEvents: 7, MaxSameTimeEvents: 3, Wall: time.Second}.DevsBudget(interrupt)
	if db.MaxEvents != 7 || db.MaxSameTimeEvents != 3 {
		t.Fatalf("DevsBudget = %+v", db)
	}
	if db.Interrupt == nil || !db.Interrupt() {
		t.Fatal("interrupt not threaded through")
	}
}

func TestWatchdogExpires(t *testing.T) {
	var w Watchdog
	if w.Expired() {
		t.Fatal("zero watchdog reports expired")
	}
	w.Arm(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for !w.Expired() {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never expired")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWatchdogDisarmInvalidates(t *testing.T) {
	var w Watchdog
	w.Arm(time.Millisecond)
	w.Disarm()
	time.Sleep(20 * time.Millisecond) // let the stale timer fire
	if w.Expired() {
		t.Fatal("expired after Disarm: stale timer generation was honored")
	}
}

func TestWatchdogRearmSupersedes(t *testing.T) {
	var w Watchdog
	w.Arm(time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	w.Arm(time.Hour) // new generation: the old expiry must not leak in
	if w.Expired() {
		t.Fatal("old generation's expiry survived a re-arm")
	}
	w.Disarm()
}

func TestWatchdogZeroDurationNeverExpires(t *testing.T) {
	var w Watchdog
	w.Arm(0)
	time.Sleep(5 * time.Millisecond)
	if w.Expired() {
		t.Fatal("zero-duration arm expired")
	}
	w.Disarm()
}

func TestStepAbortErrorChain(t *testing.T) {
	be := &devs.BudgetError{Reason: devs.ReasonMaxEvents, At: 42, Events: 9}
	sa := &StepAbort{Period: 3, Err: be}
	if !errors.Is(sa, devs.ErrBudgetExceeded) {
		t.Fatal("StepAbort does not unwrap to ErrBudgetExceeded")
	}
	got, ok := AsStepAbort(sa)
	if !ok || got.Period != 3 {
		t.Fatalf("AsStepAbort = %+v, %v", got, ok)
	}
	if !IsStepAbort(sa) {
		t.Fatal("IsStepAbort = false")
	}
	if IsStepAbort(errors.New("plain")) {
		t.Fatal("IsStepAbort matched a plain error")
	}
	if !strings.Contains(sa.Error(), "event budget") {
		t.Fatalf("Error() = %q", sa.Error())
	}
	wall := &StepAbort{Period: 4, Wall: true, Err: be}
	if !strings.Contains(wall.Error(), "wall-clock deadline") {
		t.Fatalf("Error() = %q", wall.Error())
	}
}

func TestQuarantineStateMachine(t *testing.T) {
	var q Quarantine
	if q.Active() || q.Cooldown(10) != 10 {
		t.Fatalf("zero value: active=%v cooldown=%d", q.Active(), q.Cooldown(10))
	}
	if q.RecordWedge() {
		t.Fatal("entered quarantine on the first wedge")
	}
	if !q.RecordWedge() {
		t.Fatal("second consecutive wedge did not enter quarantine")
	}
	if !q.Active() || q.Entries() != 1 {
		t.Fatalf("active=%v entries=%d", q.Active(), q.Entries())
	}
	if q.Cooldown(10) != 10*QuarantineFactor {
		t.Fatalf("quarantined cooldown = %d", q.Cooldown(10))
	}
	if q.RecordWedge() {
		t.Fatal("re-entered quarantine while already active")
	}
	q.RecordRecovery()
	if q.Active() || q.Cooldown(10) != 10 {
		t.Fatal("recovery did not lift quarantine")
	}
	if q.Entries() != 1 {
		t.Fatalf("entries reset by recovery: %d", q.Entries())
	}
	// The wedge tally resets on recovery: one wedge alone must not re-enter.
	if q.RecordWedge() {
		t.Fatal("single wedge after recovery entered quarantine")
	}
}

// Disarm and re-Arm must stop the superseded timer: an armed timer holds
// the watchdog (and the server embedding it) reachable until it fires.
func TestWatchdogStopsSupersededTimer(t *testing.T) {
	var w Watchdog
	w.Arm(time.Hour)
	first := w.timer.Load()
	if first == nil {
		t.Fatal("Arm left no timer")
	}
	w.Arm(time.Hour)
	if first.Stop() {
		t.Fatal("re-Arm left the previous timer running")
	}
	second := w.timer.Load()
	w.Disarm()
	if second.Stop() {
		t.Fatal("Disarm left the timer running")
	}
	if w.timer.Load() != nil {
		t.Fatal("Disarm kept a timer")
	}
	w.Arm(0)
	if w.timer.Load() != nil {
		t.Fatal("a zero-duration Arm started a timer")
	}
}

// Arm, Disarm and Expired race freely (serve's /health polls Expired
// while the step loop arms and disarms); run under -race.
func TestWatchdogConcurrentUse(t *testing.T) {
	var w Watchdog
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch (g + i) % 3 {
				case 0:
					w.Arm(time.Duration(i%3) * time.Microsecond)
				case 1:
					w.Disarm()
				default:
					w.Expired()
				}
			}
		}(g)
	}
	wg.Wait()
	w.Disarm()
	if w.Expired() {
		t.Fatal("expired after the final Disarm")
	}
	if w.timer.Load() != nil {
		t.Fatal("a timer survived the final Disarm")
	}
}
