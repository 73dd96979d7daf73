package check

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"vdcpower/internal/cluster"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/packing"
	"vdcpower/internal/power"
)

// failing is an invariant that always fires, for checker-mechanics tests.
type failing struct{}

func (failing) Name() string         { return "test/failing" }
func (failing) Check(ev Event) error { return errors.New("always") }

func TestCheckerRecordsAndCaps(t *testing.T) {
	c := New(failing{})
	for i := 0; i < maxViolations+50; i++ {
		c.Observe(Event{Kind: EvStep, Step: i})
	}
	if c.Events() != maxViolations+50 {
		t.Fatalf("Events() = %d, want %d", c.Events(), maxViolations+50)
	}
	if c.NumViolations() != maxViolations+50 {
		t.Fatalf("NumViolations() = %d, want %d", c.NumViolations(), maxViolations+50)
	}
	if len(c.Violations()) != maxViolations {
		t.Fatalf("stored %d violations, cap is %d", len(c.Violations()), maxViolations)
	}
	err := c.Err()
	if err == nil {
		t.Fatal("Err() = nil with violations recorded")
	}
	if !strings.Contains(err.Error(), "and") || !strings.Contains(err.Error(), "test/failing") {
		t.Fatalf("Err() lacks summary: %v", err)
	}
}

func TestCheckerCleanRun(t *testing.T) {
	c := New(All()...)
	c.Observe(Event{Kind: EvStep, Step: 0})
	if err := c.Err(); err != nil {
		t.Fatalf("empty event stream violated invariants: %v", err)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		EvInit: "init", EvStep: "step", EvConsolidate: "consolidate",
		EvWatchdog: "watchdog", EvPacking: "packing", Kind(99): "kind(99)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Invariant: "a/b", Kind: EvStep, Step: 7, Detail: "boom"}
	if got := v.String(); got != "a/b [step step 7]: boom" {
		t.Fatalf("Violation.String() = %q", got)
	}
}

func TestObserveMinimumSlackCleanOnRealSearch(t *testing.T) {
	c := New(PackingInvariants()...)
	b := &packing.Bin{ID: "s1", CPUCap: 12, MemCap: 16}
	var items []packing.Item
	for i := 0; i < 8; i++ {
		items = append(items, packing.Item{ID: fmt.Sprintf("vm%d", i), CPU: 0.7 + 0.3*float64(i%5), Mem: 1})
	}
	cons := packing.VectorConstraint{}
	res := ObserveMinimumSlack(c, b, items, cons, packing.DefaultMinSlackConfig())
	if res.Slack < 0 {
		t.Fatalf("negative slack %v", res.Slack)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("real MinimumSlack run violated packing invariants: %v", err)
	}
	if c.Events() != 1 {
		t.Fatalf("expected one packing event, got %d", c.Events())
	}
	// Nil checker degenerates to a plain call.
	res2 := ObserveMinimumSlack(nil, b, items, cons, packing.DefaultMinSlackConfig())
	//lint:ignore floatcompare deterministic algorithm, identical inputs
	if res2.Slack != res.Slack {
		t.Fatalf("nil-checker result differs: %v vs %v", res2.Slack, res.Slack)
	}
}

func TestPolicyAuditorRecordsVerdicts(t *testing.T) {
	vm := &cluster.VM{ID: "v1", Demand: 1, MemoryGB: 2}
	from := cluster.NewServer("s1", power.TypeMid())
	to := cluster.NewServer("s2", power.TypeMid())

	aud := NewPolicyAuditor(optimizer.BandwidthPriced{WattsPerGB: 25}) // a 50 W bar for the 2 GB VM
	if aud.Name() != "bandwidth-priced" {
		t.Fatalf("auditor name %q does not forward", aud.Name())
	}
	if aud.Allow(vm, from, to, 10) {
		t.Fatal("wrapped policy should deny 10 W benefit")
	}
	if aud.Denied() != 1 {
		t.Fatalf("Denied() = %d, want 1", aud.Denied())
	}
	// A later re-proposal with enough benefit supersedes the denial.
	if !aud.Allow(vm, from, to, 80) {
		t.Fatal("wrapped policy should allow 80 W benefit")
	}
	if aud.Denied() != 0 {
		t.Fatalf("Denied() = %d after allow, want 0", aud.Denied())
	}
	aud.Allow(vm, from, to, 10)
	aud.Reset()
	if aud.Denied() != 0 {
		t.Fatalf("Denied() = %d after Reset, want 0", aud.Denied())
	}
}

func TestVetoesRespectedCatchesOverriddenVeto(t *testing.T) {
	vm := &cluster.VM{ID: "v1", Demand: 1, MemoryGB: 2}
	from := cluster.NewServer("s1", power.TypeMid())
	to := cluster.NewServer("s2", power.TypeMid())

	aud := NewPolicyAuditor(optimizer.DenyAll{})
	inv := VetoesRespected(aud)
	aud.Allow(vm, from, to, 100) // denied and recorded
	rep := &optimizer.Report{Migrations: 1, Moves: []cluster.Migration{{VM: vm, From: from, To: to}}}
	if err := inv.Check(Event{Kind: EvConsolidate, Report: rep}); err == nil {
		t.Fatal("performed vetoed migration not caught")
	}
	// The denial log resets after each consolidate event: the same report
	// is clean on the next pass when no fresh denial was recorded.
	if err := inv.Check(Event{Kind: EvConsolidate, Report: rep}); err != nil {
		t.Fatalf("stale denial leaked across consolidate events: %v", err)
	}
	// Non-consolidate events are ignored.
	aud.Allow(vm, from, to, 100)
	if err := inv.Check(Event{Kind: EvStep, Report: rep}); err != nil {
		t.Fatalf("step event checked against vetoes: %v", err)
	}
}

func TestAllRegistryHasAtLeastEightInvariants(t *testing.T) {
	invs := All()
	if len(invs) < 8 {
		t.Fatalf("registry has %d invariants, acceptance floor is 8", len(invs))
	}
	seen := map[string]bool{}
	for _, inv := range invs {
		if inv.Name() == "" {
			t.Fatal("invariant with empty name")
		}
		if seen[inv.Name()] {
			t.Fatalf("duplicate invariant name %q", inv.Name())
		}
		seen[inv.Name()] = true
		if !strings.Contains(inv.Name(), "/") {
			t.Fatalf("invariant %q is not module-scoped", inv.Name())
		}
	}
}
