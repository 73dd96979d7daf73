package guard

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vdcpower/internal/devs"
	"vdcpower/internal/race"
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

// TestBreakerLifecycle walks the breaker through every state: the
// threshold opens it, the cooldown ticks are absorbed, the probe runs
// half-open, two wedge-class openings quarantine it with a stretched
// cooldown, and one success closes it and lifts quarantine.
func TestBreakerLifecycle(t *testing.T) {
	var b Breaker
	abort := &StepAbort{Period: 1, Err: &devs.BudgetError{Reason: devs.ReasonMaxEvents}}
	if b.State() != Closed || !b.Tick() {
		t.Fatal("the zero breaker is not closed")
	}
	for i := 1; i < BreakerThreshold; i++ {
		if re, op, q := b.Fail(abort); re || op || q || b.State() != Closed {
			t.Fatalf("failure %d: reopened=%v opened=%v quarantined=%v state=%s", i, re, op, q, StateName(b.State()))
		}
	}
	if re, op, q := b.Fail(abort); re || !op || q || b.State() != Open || b.Cooldown() != BreakerCooldown {
		t.Fatalf("threshold failure: reopened=%v opened=%v quarantined=%v state=%s cooldown=%d",
			re, op, q, StateName(b.State()), b.Cooldown())
	}
	probe := func() {
		t.Helper()
		for i, n := 1, b.Cooldown(); i < n; i++ {
			if b.Tick() {
				t.Fatalf("cooldown tick %d ran a step", i)
			}
		}
		if !b.Tick() || b.State() != HalfOpen || b.Cooldown() != 0 {
			t.Fatalf("the last cooldown tick did not half-open: state=%s cooldown=%d", StateName(b.State()), b.Cooldown())
		}
	}
	probe()
	// The second wedge-class opening engages quarantine, and that opening
	// already gets the stretched cooldown.
	if re, op, q := b.Fail(abort); !re || op || !q || !b.Quarantined() || b.Cooldown() != BreakerCooldown*QuarantineFactor {
		t.Fatalf("wedged probe: reopened=%v opened=%v quarantined=%v active=%v cooldown=%d",
			re, op, q, b.Quarantined(), b.Cooldown())
	}
	probe()
	if _, _, q := b.Fail(abort); q || !b.Quarantined() {
		t.Fatalf("a wedge while quarantined re-entered (%v) or lifted (%v) quarantine", q, !b.Quarantined())
	}
	probe()
	if wasOpen, wasQ := b.Succeed(); !wasOpen || !wasQ || b.State() != Closed || b.Failures() != 0 || b.Quarantined() {
		t.Fatalf("success: wasOpen=%v wasQuarantined=%v state=%s failures=%d quarantined=%v",
			wasOpen, wasQ, StateName(b.State()), b.Failures(), b.Quarantined())
	}
	// The wedge tally resets on success: the next wedge-class opening is
	// the first again.
	for i := 0; i < BreakerThreshold; i++ {
		b.Fail(abort)
	}
	if b.State() != Open || b.Quarantined() || b.Cooldown() != BreakerCooldown {
		t.Fatalf("after recovery one wedge-class opening gave state=%s quarantined=%v cooldown=%d",
			StateName(b.State()), b.Quarantined(), b.Cooldown())
	}
}

func TestStateName(t *testing.T) {
	if StateName(Closed) != "closed" || StateName(Open) != "open" || StateName(HalfOpen) != "half-open" {
		t.Fatal("breaker state names wrong")
	}
}

// Disarm and re-Arm must stop the superseded deadline: an armed timer
// holds the watchdog (and the server embedding it) reachable until it
// fires. Every Arm re-arms the watchdog's one timer.
func TestWatchdogStopsSupersededTimer(t *testing.T) {
	var w Watchdog
	w.Arm(0)
	if w.timer != nil {
		t.Fatal("a zero-duration Arm started a timer")
	}
	w.Arm(time.Hour)
	timer := w.timer
	if timer == nil {
		t.Fatal("Arm left no timer")
	}
	w.Arm(time.Hour)
	if w.timer != timer {
		t.Fatal("re-Arm made a second timer")
	}
	w.Disarm()
	if timer.Stop() || w.armed {
		t.Fatal("Disarm left the timer running")
	}
	w.Arm(time.Hour)
	w.Arm(0)
	if timer.Stop() || w.armed {
		t.Fatal("a zero-duration Arm left the previous deadline running")
	}
}

// firing reports whether some watchdog's timer callback is running,
// from every goroutine's stack.
func firing() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*Watchdog).fire"))
}

// settle waits until no watchdog callback is running, then checks that
// each late one used up the count Arm or Disarm made for it: a count left
// over would make the watchdog ignore a later deadline.
func settle(t *testing.T, w *Watchdog) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); firing(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("a watchdog callback never finished")
		}
	}
	w.mu.Lock()
	stale := w.stale
	w.mu.Unlock()
	if stale != 0 {
		t.Fatalf("%d late callbacks counted, none left to run", stale)
	}
}

// A deadline that fires while the watchdog is being re-armed or disarmed
// runs its callback late, after the watchdog moved on, and must expire
// nothing. The test holds mu while the deadline fires, so its callback
// waits on mu as it would behind a concurrent Arm or Disarm.
func TestWatchdogLateCallbackExpiresNothing(t *testing.T) {
	for _, next := range []struct {
		name string
		do   func(w *Watchdog)
	}{
		{"re-Arm", func(w *Watchdog) { w.Arm(time.Hour) }},
		{"Disarm, then Arm", func(w *Watchdog) { w.Disarm(); w.Arm(time.Hour) }},
	} {
		var w Watchdog
		w.Arm(time.Millisecond)
		w.mu.Lock()
		for deadline := time.Now().Add(2 * time.Second); !firing(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the deadline never fired", next.name)
			}
		}
		w.mu.Unlock()
		next.do(&w)
		settle(t, &w)
		if w.Expired() {
			t.Fatalf("%s: the superseded deadline's callback expired the next step", next.name)
		}
		w.Disarm()
	}
}

// TestWatchdogArmDisarmAllocatesNothing: serve arms and disarms the
// watchdog around every step, so a warmed cycle stays off the heap.
func TestWatchdogArmDisarmAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	var w Watchdog
	if n := testing.AllocsPerRun(100, func() {
		w.Arm(time.Hour)
		w.Disarm()
	}); n != 0 {
		t.Fatalf("an Arm/Disarm cycle allocates %v times", n)
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
	w.mu.Lock()
	running := w.armed || w.timer != nil && w.timer.Stop()
	w.mu.Unlock()
	if running {
		t.Fatal("a deadline survived the final Disarm")
	}
	settle(t, &w)
	if w.Expired() {
		t.Fatal("a late callback expired the disarmed watchdog")
	}
}
