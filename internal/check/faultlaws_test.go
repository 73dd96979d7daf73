package check

import (
	"fmt"
	"strings"
	"testing"

	"vdcpower/internal/cluster"
	"vdcpower/internal/power"
)

func faultLawDC(t *testing.T) (*cluster.DataCenter, *cluster.VM) {
	t.Helper()
	var servers []*cluster.Server
	for i := 0; i < 3; i++ {
		servers = append(servers, cluster.NewServer(fmt.Sprintf("s%d", i), power.TypeMid()))
	}
	dc, err := cluster.NewDataCenter(servers)
	if err != nil {
		t.Fatal(err)
	}
	v := &cluster.VM{ID: "v1", Demand: 1, MemoryGB: 1}
	if err := dc.Place(v, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	return dc, v
}

func TestNoDoublePlacementCleanTwoPhase(t *testing.T) {
	dc, v := faultLawDC(t)
	law := noDoublePlacement{}
	ck := New(law)
	dc.SetMigrationObserver(func(tx *cluster.MigrationTx) {
		ck.Observe(Event{Kind: EvMigration, Step: 0, DC: dc, Migration: &MigrationObservation{
			VMID: tx.VM().ID, From: tx.Source().ID, To: tx.Target().ID, Phase: string(tx.Phase()),
		}})
	})
	tx, err := dc.BeginMigration(v, dc.Servers[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, err = dc.BeginMigration(v, dc.Servers[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	// A post-pass observation with nothing in flight is clean too.
	ck.Observe(Event{Kind: EvConsolidate, Step: 0, DC: dc})
	if err := ck.Err(); err != nil {
		t.Fatalf("clean two-phase flow flagged: %v", err)
	}
}

func TestNoDoublePlacementCatchesLeakedReservation(t *testing.T) {
	dc, v := faultLawDC(t)
	if _, err := dc.BeginMigration(v, dc.Servers[1]); err != nil {
		t.Fatal(err)
	}
	// The pass ended (EvConsolidate) with the reservation still open.
	err := noDoublePlacement{}.Check(Event{Kind: EvConsolidate, Step: 3, DC: dc})
	if err == nil || !strings.Contains(err.Error(), "leaked") {
		t.Fatalf("leaked reservation not caught: %v", err)
	}
}

func TestNoDoublePlacementCatchesLyingPhase(t *testing.T) {
	dc, _ := faultLawDC(t)
	// Claim a commit onto s1 while the VM still sits on s0.
	err := noDoublePlacement{}.Check(Event{Kind: EvMigration, Step: 1, DC: dc,
		Migration: &MigrationObservation{VMID: "v1", From: "s0", To: "s1", Phase: string(cluster.TxCommitted)}})
	if err == nil || !strings.Contains(err.Error(), "not target") {
		t.Fatalf("lying commit not caught: %v", err)
	}
	err = noDoublePlacement{}.Check(Event{Kind: EvMigration, Step: 1, DC: dc,
		Migration: &MigrationObservation{VMID: "v1", From: "s2", To: "s1", Phase: string(cluster.TxRolledBack)}})
	if err == nil || !strings.Contains(err.Error(), "not source") {
		t.Fatalf("lying rollback not caught: %v", err)
	}
	err = noDoublePlacement{}.Check(Event{Kind: EvMigration, Step: 1, DC: dc,
		Migration: &MigrationObservation{VMID: "v1", From: "s0", To: "s1", Phase: "warp"}})
	if err == nil || !strings.Contains(err.Error(), "unknown migration phase") {
		t.Fatalf("unknown phase not caught: %v", err)
	}
}

func TestHoldWindowBoundedLaw(t *testing.T) {
	law := holdWindowBounded{}
	ok := []Event{
		{Kind: EvControl, Control: ControlObservation{App: "a", HoldWindow: 4}},
		{Kind: EvControl, Control: ControlObservation{App: "a", Held: true, HeldStreak: 4, HoldWindow: 4}},
		{Kind: EvControl, Control: ControlObservation{App: "a", Held: true, HeldStreak: 5, HoldWindow: 4, OpenLoop: true}},
		{Kind: EvStep}, // non-control events are out of scope
	}
	for i, ev := range ok {
		if err := law.Check(ev); err != nil {
			t.Errorf("legal event %d flagged: %v", i, err)
		}
	}
	// Stale loop closure: streak past the window but still closed-loop.
	err := law.Check(Event{Kind: EvControl, Control: ControlObservation{
		App: "a", Held: true, HeldStreak: 5, HoldWindow: 4}})
	if err == nil || !strings.Contains(err.Error(), "closed the loop") {
		t.Fatalf("stale closure not caught: %v", err)
	}
	// Premature open loop defeats the window's purpose.
	err = law.Check(Event{Kind: EvControl, Control: ControlObservation{
		App: "a", Held: true, HeldStreak: 2, HoldWindow: 4, OpenLoop: true}})
	if err == nil || !strings.Contains(err.Error(), "within window") {
		t.Fatalf("premature open loop not caught: %v", err)
	}
	if err := law.Check(Event{Kind: EvControl, Control: ControlObservation{App: "a"}}); err == nil {
		t.Fatal("missing hold window bound not caught")
	}
}

func TestVMConservationAcceptsReportedLosses(t *testing.T) {
	dc, v := faultLawDC(t)
	law := &vmConservation{}
	ck := New(law)
	ck.Observe(Event{Kind: EvInit, Step: 0, DC: dc}) // baseline: {v1}
	lost := dc.Crash(dc.Servers[0])
	if len(lost) != 1 || lost[0] != v {
		t.Fatalf("crash orphans = %v", lost)
	}
	// Reported loss: the baseline shrinks, no violation.
	ck.Observe(Event{Kind: EvCrash, Step: 1, DC: dc, LostVMs: []string{"v1"}})
	ck.Observe(Event{Kind: EvStep, Step: 2, DC: dc})
	if err := ck.Err(); err != nil {
		t.Fatalf("reported loss flagged: %v", err)
	}
	// An unexplained loss (no LostVMs report) still violates.
	dc2, _ := faultLawDC(t)
	law2 := &vmConservation{}
	law2.Check(Event{Kind: EvInit, Step: 0, DC: dc2})
	dc2.Crash(dc2.Servers[0])
	if err := law2.Check(Event{Kind: EvStep, Step: 1, DC: dc2}); err == nil {
		t.Fatal("silent VM loss not caught")
	}
	// Reporting a loss of a VM that never existed is itself a violation.
	law3 := &vmConservation{}
	law3.Check(Event{Kind: EvInit, Step: 0, DC: dc})
	if err := law3.Check(Event{Kind: EvCrash, Step: 1, LostVMs: []string{"phantom"}}); err == nil {
		t.Fatal("phantom loss not caught")
	}
}
