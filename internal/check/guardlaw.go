package check

import "fmt"

// GuardInvariants returns the bounded-execution laws introduced with the
// guard layer: a step's event drain never silently overruns its budget,
// and exhaustion is always converted into a failed step (never swallowed,
// never invented).
func GuardInvariants() []Invariant {
	return []Invariant{guardBudgetBounded{}}
}

// guardBudgetBounded is the guard/step-budget-bounded law. For every
// EvGuard event it checks that (1) the drain never fired more events than
// its budget without tripping, (2) a same-instant run never exceeded its
// bound without tripping, and (3) "tripped" and "step aborted" imply each
// other — a trip the harness ignored would be a silent partial period,
// and an abort without a trip would be a fabricated failure.
type guardBudgetBounded struct{}

func (guardBudgetBounded) Name() string { return "guard/step-budget-bounded" }

func (guardBudgetBounded) Check(ev Event) error {
	if ev.Kind != EvGuard {
		return nil
	}
	g := ev.Guard
	if g.Events < 0 || g.SameTime < 0 {
		return fmt.Errorf("negative drain accounting: events=%d same-time=%d", g.Events, g.SameTime)
	}
	if g.MaxEvents > 0 && g.Events > g.MaxEvents && !g.Tripped {
		return fmt.Errorf("drain fired %d events past its %d-event budget without tripping", g.Events, g.MaxEvents)
	}
	if g.MaxSameTime > 0 && g.SameTime > g.MaxSameTime && !g.Tripped {
		return fmt.Errorf("same-instant run of %d exceeded the %d bound without tripping", g.SameTime, g.MaxSameTime)
	}
	if g.Tripped && !g.Aborted {
		return fmt.Errorf("budget exhaustion (%d events, same-instant run %d) was not converted into a failed step", g.Events, g.SameTime)
	}
	if g.Aborted && !g.Tripped {
		return fmt.Errorf("step aborted without a budget trip")
	}
	return nil
}
