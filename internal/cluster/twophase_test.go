package cluster

import "testing"

func TestBeginCommitEquivalentToMigrate(t *testing.T) {
	dc := testDC(t, 2)
	v := newVM("v1", 1.0, 2)
	if err := dc.Place(v, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	tx, err := dc.BeginMigration(v, dc.Servers[1])
	if err != nil {
		t.Fatal(err)
	}
	if tx.Phase() != TxReserved || tx.Source() != dc.Servers[0] || tx.Target() != dc.Servers[1] || tx.VM() != v {
		t.Fatalf("reservation shape: %+v", tx)
	}
	// Mid-flight: the VM is still hosted exactly once, on the source.
	if dc.HostOf("v1") != dc.Servers[0] || dc.Servers[1].NumVMs() != 0 {
		t.Fatal("reservation moved the VM early")
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if m.From != dc.Servers[0] || m.To != dc.Servers[1] || dc.HostOf("v1") != dc.Servers[1] {
		t.Fatalf("commit did not move the VM: %+v", m)
	}
	if tx.Phase() != TxCommitted || len(dc.InFlight()) != 0 {
		t.Fatal("transaction not retired")
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Double-commit and rollback-after-commit are rejected.
	if _, err := tx.Commit(); err == nil {
		t.Fatal("double commit accepted")
	}
	if err := tx.Rollback(); err == nil {
		t.Fatal("rollback after commit accepted")
	}
}

func TestRollbackRestoresPlacementAndSleep(t *testing.T) {
	dc := testDC(t, 2)
	v := newVM("v1", 1.0, 2)
	if err := dc.Place(v, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	dc.Servers[1].Sleep()
	tx, err := dc.BeginMigration(v, dc.Servers[1])
	if err != nil {
		t.Fatal(err)
	}
	if dc.Servers[1].State() != Active {
		t.Fatal("reservation did not wake the target")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if dc.HostOf("v1") != dc.Servers[0] {
		t.Fatal("rollback moved the VM")
	}
	if dc.Servers[1].State() != Sleeping {
		t.Fatal("rollback did not re-sleep the target it woke")
	}
	if tx.Phase() != TxRolledBack || len(dc.InFlight()) != 0 {
		t.Fatal("transaction not retired")
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err == nil {
		t.Fatal("double rollback accepted")
	}
}

func TestRollbackKeepsTargetClaimedByOthers(t *testing.T) {
	dc := testDC(t, 3)
	a, b := newVM("a", 1.0, 2), newVM("b", 1.0, 2)
	if err := dc.Place(a, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	if err := dc.Place(b, dc.Servers[1]); err != nil {
		t.Fatal(err)
	}
	dc.Servers[2].Sleep()
	txA, err := dc.BeginMigration(a, dc.Servers[2])
	if err != nil {
		t.Fatal(err)
	}
	txB, err := dc.BeginMigration(b, dc.Servers[2])
	if err != nil {
		t.Fatal(err)
	}
	if got := len(dc.InFlight()); got != 2 {
		t.Fatalf("in-flight = %d", got)
	}
	// A's rollback must not re-sleep the target B still has reserved.
	if err := txA.Rollback(); err != nil {
		t.Fatal(err)
	}
	if dc.Servers[2].State() != Active {
		t.Fatal("rollback slept a server another migration reserved")
	}
	if _, err := txB.Commit(); err != nil {
		t.Fatal(err)
	}
	if dc.HostOf("b") != dc.Servers[2] {
		t.Fatal("surviving migration lost")
	}
}

func TestBeginMigrationRejections(t *testing.T) {
	dc := testDC(t, 3)
	v := newVM("v1", 1.0, 2)
	if err := dc.Place(v, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := dc.BeginMigration(newVM("ghost", 1, 1), dc.Servers[1]); err == nil {
		t.Fatal("unplaced VM accepted")
	}
	if _, err := dc.BeginMigration(v, dc.Servers[0]); err == nil {
		t.Fatal("self-migration accepted")
	}
	dc.Servers[1].Cordon()
	if _, err := dc.BeginMigration(v, dc.Servers[1]); err == nil {
		t.Fatal("cordoned target accepted")
	}
	dc.Crash(dc.Servers[2])
	if _, err := dc.BeginMigration(v, dc.Servers[2]); err == nil {
		t.Fatal("failed target accepted")
	}
	dc.Servers[1].Uncordon()
	if _, err := dc.BeginMigration(v, dc.Servers[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := dc.BeginMigration(v, dc.Servers[1]); err == nil {
		t.Fatal("double reservation accepted")
	}
}

func TestMigrationObserverSeesAllPhases(t *testing.T) {
	dc := testDC(t, 2)
	v := newVM("v1", 1.0, 2)
	if err := dc.Place(v, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	var phases []TxPhase
	dc.SetMigrationObserver(func(tx *MigrationTx) { phases = append(phases, tx.Phase()) })
	tx, err := dc.BeginMigration(v, dc.Servers[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Migrate(v, dc.Servers[1]); err != nil {
		t.Fatal(err)
	}
	want := []TxPhase{TxReserved, TxRolledBack, TxReserved, TxCommitted}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v", phases)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases = %v, want %v", phases, want)
		}
	}
}

func TestCrashDetachesVMsAndCancelsInFlight(t *testing.T) {
	dc := testDC(t, 3)
	a, b := newVM("a", 1.0, 2), newVM("b", 1.0, 2)
	if err := dc.Place(a, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	if err := dc.Place(b, dc.Servers[1]); err != nil {
		t.Fatal(err)
	}
	// a is migrating out of the server about to crash; b is migrating into it.
	txA, err := dc.BeginMigration(a, dc.Servers[2])
	if err != nil {
		t.Fatal(err)
	}
	txB, err := dc.BeginMigration(b, dc.Servers[0])
	if err != nil {
		t.Fatal(err)
	}
	orphans := dc.Crash(dc.Servers[0])
	if len(orphans) != 1 || orphans[0] != a {
		t.Fatalf("orphans = %v", orphans)
	}
	if dc.Servers[0].State() != Failed || dc.Servers[0].Power() != 0 {
		t.Fatal("crashed server not failed/powered off")
	}
	if dc.HostOf("a") != nil {
		t.Fatal("orphan still indexed")
	}
	if dc.HostOf("b") != dc.Servers[1] {
		t.Fatal("inbound migration's VM moved")
	}
	if len(dc.InFlight()) != 0 || txA.Phase() != TxRolledBack || txB.Phase() != TxRolledBack {
		t.Fatal("crash did not cancel in-flight migrations")
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Crash is idempotent; a failed server cannot be placed on or woken.
	if dc.Crash(dc.Servers[0]) != nil {
		t.Fatal("second crash returned orphans")
	}
	if err := dc.Place(newVM("c", 1, 1), dc.Servers[0]); err == nil {
		t.Fatal("placement on failed server accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("waking a failed server did not panic")
			}
		}()
		dc.Servers[0].Wake()
	}()
}

func TestCommitFailsWhenTargetCrashes(t *testing.T) {
	dc := testDC(t, 3)
	v := newVM("v1", 1.0, 2)
	if err := dc.Place(v, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	tx, err := dc.BeginMigration(v, dc.Servers[1])
	if err != nil {
		t.Fatal(err)
	}
	// Crash cancels the tx; a late Commit must fail, not double-place.
	dc.Crash(dc.Servers[1])
	if _, err := tx.Commit(); err == nil {
		t.Fatal("commit onto crashed target accepted")
	}
	if dc.HostOf("v1") != dc.Servers[0] {
		t.Fatal("VM lost")
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotWithMigrationInFlight(t *testing.T) {
	// A snapshot taken mid-two-phase records a consistent placement: the
	// VM is on its source (reservations are not serialized).
	dc := testDC(t, 2)
	v := newVM("v1", 1.0, 2)
	if err := dc.Place(v, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	dc.Servers[1].Sleep()
	tx, err := dc.BeginMigration(v, dc.Servers[1])
	if err != nil {
		t.Fatal(err)
	}
	back := jsonRoundTrip(t, dc.Snapshot())
	if vms := back.Servers[0].VMs; len(vms) != 1 || vms[0].ID != "v1" {
		t.Fatalf("mid-flight VM recorded as %+v, want on its source", vms)
	}
	if back.Servers[1].Sleeping || len(back.Servers[1].VMs) != 0 {
		t.Fatalf("woken reservation target recorded as %+v, want active and empty", back.Servers[1])
	}
	// The original transaction still commits normally after the snapshot.
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotFailedServerRoundTrip(t *testing.T) {
	dc := testDC(t, 2)
	v := newVM("v1", 1.0, 2)
	if err := dc.Place(v, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	dc.Crash(dc.Servers[1])
	back := jsonRoundTrip(t, dc.Snapshot())
	if s1 := back.Servers[1]; !s1.Failed || s1.Sleeping || len(s1.VMs) != 0 {
		t.Fatalf("failed server recorded as %+v", s1)
	}
	if s0 := back.Servers[0]; s0.Failed || len(s0.VMs) != 1 {
		t.Fatalf("surviving server recorded as %+v", s0)
	}
}
