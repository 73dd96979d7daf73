package guard

import (
	"errors"
	"strings"
	"testing"

	"vdcpower/internal/devs"
)

// refBreaker is the degraded-mode policy as serve kept it before Breaker
// merged it: the arithmetic of serve's allowStep and recordStep over its
// inline breaker fields and a quarantine tally, without the mutex, the
// logs and the facts, and with serve's own values written out (threshold
// 5, cooldown 10, quarantine at 2 wedge-class openings, cooldown ×6).
// state is the breaker state serve last published.
type refBreaker struct {
	consecFails  int
	breakerOpen  bool
	cooldownLeft int
	state        int
	wedges       int // wedge-class openings since the last success
	quarantined  bool
	entries      int
}

// allowStep reports whether the tick runs a step and whether it published
// a breaker fact.
func (r *refBreaker) allowStep() (run, published bool) {
	if !r.breakerOpen {
		return true, false
	}
	if r.cooldownLeft > 1 {
		r.cooldownLeft--
		r.state = Open
		return false, true
	}
	r.cooldownLeft = 0
	r.state = HalfOpen
	return true, true
}

// succeed is recordStep's success branch; it reports whether it logged
// the breaker closing and the quarantine lifting.
func (r *refBreaker) succeed() (closed, lifted bool) {
	r.consecFails = 0
	if r.breakerOpen {
		r.breakerOpen = false
		closed = true
	}
	lifted = r.quarantined
	r.wedges = 0
	r.quarantined = false
	r.state = Closed
	return closed, lifted
}

// fail is recordStep's failure branch; it reports whether the breaker
// re-opened, opened, or entered quarantine.
func (r *refBreaker) fail(err error) (reopened, opened, entered bool) {
	r.consecFails++
	switch {
	case r.breakerOpen:
		reopened = true
	case r.consecFails >= 5:
		r.breakerOpen = true
		opened = true
	default:
		return false, false, false
	}
	if IsStepAbort(err) {
		r.wedges++
		if !r.quarantined && r.wedges >= 2 {
			r.quarantined = true
			r.entries++
			entered = true
		}
	}
	r.cooldownLeft = 10
	if r.quarantined {
		r.cooldownLeft *= 6
	}
	r.state = Open
	return reopened, opened, entered
}

// script encodes a readable op sequence for FuzzBreakerMatchesReference:
// t a tick, s a successful step, f a plain failure, w a wedge-class one.
func script(ops string) []byte {
	b := make([]byte, len(ops))
	for i := range ops {
		b[i] = byte(strings.IndexByte("tsfw", ops[i]))
	}
	return b
}

// FuzzBreakerMatchesReference drives Breaker and the reference model with
// the same ops and compares them after every op: the state, the failure
// count, the cooldown, quarantine, its entries, and every flag returned.
func FuzzBreakerMatchesReference(f *testing.F) {
	r := strings.Repeat
	// TestObserverDigestsBreaker's run: step errors until step 6, 40 ticks.
	f.Add(script(r("tf", 5) + r("t", 9) + "tf" + r("t", 9) + "ts" + r("ts", 15)))
	// The wedge-smoke run: step aborts until step 8, 300 ticks.
	f.Add(script(r("tw", 5) + r("t", 9) + "tw" + r(r("t", 59)+"tw", 2) + r("t", 59) + "ts" + r("ts", 105)))
	// A plain opening between two wedge-class openings keeps the tally.
	f.Add(script(r("tw", 5) + r("t", 9) + "tf" + r("t", 9) + "tw" + r("t", 59) + "ts"))
	// A success while open, without a probe, then a fresh opening.
	f.Add(script(r("tf", 5) + "ttts" + r("tw", 5) + r("t", 9) + "tw"))
	abort := &StepAbort{Period: 1, Err: &devs.BudgetError{Reason: devs.ReasonMaxEvents}}
	plain := errors.New("plain step failure")
	f.Fuzz(func(t *testing.T, ops []byte) {
		var b Breaker
		var ref refBreaker
		entries := 0
		for i, op := range ops {
			prev := b.State()
			var got, want [3]bool
			switch op % 4 {
			case 0:
				got[0], got[1] = b.Tick(), prev != Closed
				want[0], want[1] = ref.allowStep()
			case 1:
				got[0], got[1] = b.Succeed()
				want[0], want[1] = ref.succeed()
			default:
				err := error(plain)
				if op%4 == 3 {
					err = abort
				}
				got[0], got[1], got[2] = b.Fail(err)
				want[0], want[1], want[2] = ref.fail(err)
				if got[2] {
					entries++
				}
			}
			if got != want || b.State() != ref.state || b.Failures() != ref.consecFails ||
				b.Cooldown() != ref.cooldownLeft || b.Quarantined() != ref.quarantined || entries != ref.entries {
				t.Fatalf("op %d (%d): flags %v, state %s, failures %d, cooldown %d, quarantined %v, entries %d; "+
					"reference flags %v, state %s, failures %d, cooldown %d, quarantined %v, entries %d",
					i, op%4, got, StateName(b.State()), b.Failures(), b.Cooldown(), b.Quarantined(), entries,
					want, StateName(ref.state), ref.consecFails, ref.cooldownLeft, ref.quarantined, ref.entries)
			}
		}
	})
}
