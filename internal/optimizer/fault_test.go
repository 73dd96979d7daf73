package optimizer

import (
	"fmt"
	"testing"

	"vdcpower/internal/cluster"
	"vdcpower/internal/fault"
)

// scatteredDC builds the standard consolidation scenario: 6 tiny VMs over
// 6 servers, which a healthy IPAC packs onto the high-end server.
func scatteredDC(t *testing.T) *cluster.DataCenter {
	t.Helper()
	dc := mixedDC(t, 1, 3, 2)
	for i, s := range dc.Servers {
		placeVM(t, dc, fmt.Sprintf("v%d", i), 1.0, 1.0, s)
	}
	return dc
}

func TestIPACRetriesAbortedMigration(t *testing.T) {
	// Abort probability 0.5 with 4 retries: essentially every planned move
	// eventually commits, so consolidation still completes — just with a
	// fault log documenting the aborted attempts.
	dc := scatteredDC(t)
	ipac := NewIPAC()
	ipac.SetFaults(fault.New(fault.Profile{Seed: 3,
		Migration: fault.MigrationProfile{AbortProb: 0.5, MaxRetries: 4}}))
	rep, err := ipac.Consolidate(dc)
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if dc.NumActive() != 1 || rep.Migrations != 5 {
		t.Fatalf("consolidation incomplete under retries: active=%d %s", dc.NumActive(), rep)
	}
	if len(rep.FaultLog) == 0 {
		t.Fatal("no aborts logged at abort_prob 0.5")
	}
	for _, r := range rep.FaultLog {
		if r.Kind != fault.MigrationAbort {
			t.Fatalf("unexpected fault %s", r)
		}
	}
}

func TestIPACSkipsMoveAfterRetriesExhausted(t *testing.T) {
	// Abort probability 1 with no retries: every move fails. IPAC must
	// skip-and-continue — no error, no panic, placement untouched.
	dc := scatteredDC(t)
	before := dc.NumActive()
	ipac := NewIPAC()
	ipac.SetFaults(fault.New(fault.Profile{Seed: 4,
		Migration: fault.MigrationProfile{AbortProb: 1}}))
	rep, err := ipac.Consolidate(dc)
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if rep.Migrations != 0 || rep.FailedMoves == 0 {
		t.Fatalf("moves under abort_prob 1: %s", rep)
	}
	if dc.NumActive() != before {
		t.Fatalf("active changed %d -> %d with every migration aborting", before, dc.NumActive())
	}
	for _, v := range dc.VMs() {
		if dc.HostOf(v.ID) == nil {
			t.Fatalf("VM %s lost", v.ID)
		}
	}
	if len(dc.InFlight()) != 0 {
		t.Fatal("leaked reservation after aborted pass")
	}
}

func TestIPACTransientPassError(t *testing.T) {
	dc := scatteredDC(t)
	ipac := NewIPAC()
	ipac.SetFaults(fault.New(fault.Profile{Seed: 5,
		Optimizer: fault.OptimizerProfile{ErrorProb: 1}}))
	rep, err := ipac.Consolidate(dc)
	if err == nil {
		t.Fatal("injected pass error not surfaced")
	}
	if !fault.IsInjected(err) {
		t.Fatalf("pass error not typed: %v", err)
	}
	if rep.Migrations != 0 || len(rep.FaultLog) != 1 {
		t.Fatalf("failed pass report: %s (log %v)", rep, rep.FaultLog)
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The pass error is transient: a fault-free pass completes.
	ipac.SetFaults(nil)
	if _, err := ipac.Consolidate(dc); err != nil {
		t.Fatal(err)
	}
	if dc.NumActive() != 1 {
		t.Fatalf("recovery pass did not consolidate: active=%d", dc.NumActive())
	}
}

// pMapper draws from the same fault plane as IPAC: with every migration
// aborting it skips each planned move and loses nothing, an injected
// pass error surfaces typed, and a fault-free pass then consolidates.
func TestPMapperDrawsFaults(t *testing.T) {
	dc := scatteredDC(t)
	before := dc.NumActive()
	pm := NewPMapper()
	pm.SetFaults(fault.New(fault.Profile{Seed: 4, Migration: fault.MigrationProfile{AbortProb: 1}}))
	rep, err := pm.Consolidate(dc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations != 0 || rep.FailedMoves == 0 || dc.NumActive() != before {
		t.Fatalf("moves under abort_prob 1: %s, active %d -> %d", rep, before, dc.NumActive())
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(dc.InFlight()) != 0 {
		t.Fatal("leaked reservation after aborted pass")
	}

	pm.SetFaults(fault.New(fault.Profile{Seed: 5, Optimizer: fault.OptimizerProfile{ErrorProb: 1}}))
	rep, err = pm.Consolidate(dc)
	if !fault.IsInjected(err) || rep.Migrations != 0 || len(rep.FaultLog) != 1 {
		t.Fatalf("injected pass: error %v, report %s (log %v)", err, rep, rep.FaultLog)
	}

	pm.SetFaults(nil)
	if _, err := pm.Consolidate(dc); err != nil {
		t.Fatal(err)
	}
	if dc.NumActive() >= before {
		t.Fatalf("recovery pass did not consolidate: active %d -> %d", before, dc.NumActive())
	}
}

func TestResolveOverloadsWithFaultsLeavesOverloadReported(t *testing.T) {
	// One overloaded mid server (cap 4), relief target available, but every
	// relief migration aborts: the overload must stay reported as
	// unresolved, not fail the pass.
	dc := mixedDC(t, 1, 1, 0)
	mid := dc.Servers[1]
	placeVM(t, dc, "big", 3.0, 1.0, mid)
	placeVM(t, dc, "more", 2.0, 1.0, mid)
	if !mid.Overloaded() {
		t.Fatal("setup: mid not overloaded")
	}
	inj := fault.New(fault.Profile{Seed: 6, Migration: fault.MigrationProfile{AbortProb: 1}})
	ipac := NewIPAC()
	rep, err := ResolveOverloadsWithFaults(dc, ipac.Constraint, ipac.MinSlack, inj)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unresolved == 0 || rep.Migrations != 0 {
		t.Fatalf("overload silently resolved: %s", rep)
	}
	if !mid.Overloaded() {
		t.Fatal("overload vanished without migrations")
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Without faults the same relief succeeds.
	rep, err = ResolveOverloadsWithFaults(dc, ipac.Constraint, ipac.MinSlack, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Overloaded() || rep.Migrations == 0 {
		t.Fatalf("fault-free relief failed: %s", rep)
	}
}

func TestIPACFaultRunsAreReproducible(t *testing.T) {
	run := func() (Report, []string) {
		dc := scatteredDC(t)
		ipac := NewIPAC()
		ipac.SetFaults(fault.New(fault.Profile{Seed: 7,
			Migration: fault.MigrationProfile{AbortProb: 0.4, MaxRetries: 1}}))
		rep, err := ipac.Consolidate(dc)
		if err != nil {
			t.Fatal(err)
		}
		var placement []string
		for _, v := range dc.VMs() {
			placement = append(placement, v.ID+"@"+dc.HostOf(v.ID).ID)
		}
		return rep, placement
	}
	repA, placeA := run()
	repB, placeB := run()
	if repA.String() != repB.String() || len(repA.FaultLog) != len(repB.FaultLog) {
		t.Fatalf("same-seed reports differ: %s vs %s", repA, repB)
	}
	for i := range placeA {
		if placeA[i] != placeB[i] {
			t.Fatalf("same-seed placements differ: %v vs %v", placeA, placeB)
		}
	}
}
