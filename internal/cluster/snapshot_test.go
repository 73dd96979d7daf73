package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"vdcpower/internal/power"
)

func snapshotDC(t *testing.T) *DataCenter {
	t.Helper()
	dc := testDC(t, 3)
	if err := dc.Place(newVM("v1", 1.5, 2), dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	if err := dc.Place(newVM("v2", 0.5, 1), dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	dc.Servers[0].SetFreq(1.2)
	dc.Servers[2].Sleep()
	return dc
}

// jsonRoundTrip writes the snapshot with WriteJSON and decodes it back.
func jsonRoundTrip(t *testing.T, s Snapshot) Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	return back
}

func TestSnapshotRoundTrip(t *testing.T) {
	dc := snapshotDC(t)
	snap := dc.Snapshot()
	if back := jsonRoundTrip(t, snap); !reflect.DeepEqual(back, snap) {
		t.Fatalf("JSON round trip changed the snapshot:\n%+v\n%+v", back, snap)
	}
	if len(snap.Servers) != 3 {
		t.Fatalf("servers = %d", len(snap.Servers))
	}
	s0 := snap.Servers[0]
	if s0.ID != "s0" || s0.FreqGHz != 1.2 || s0.Sleeping || s0.Failed {
		t.Fatalf("server 0 = %+v", s0)
	}
	if !snap.Servers[2].Sleeping {
		t.Fatal("sleep state lost")
	}
	if len(s0.VMs) != 2 || s0.VMs[0].ID != "v1" || s0.VMs[1].ID != "v2" {
		t.Fatalf("VM placement lost: %+v", s0.VMs)
	}
	if got := s0.VMs[0].Demand + s0.VMs[1].Demand; got != 2.0 {
		t.Fatalf("demand = %v", got)
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	dc := snapshotDC(t)
	snap := dc.Snapshot()
	// Mutating the snapshot must not touch the live data center.
	snap.Servers[0].VMs[0].Demand = 99
	if dc.Servers[0].VMs()[0].Demand == 99 {
		t.Fatal("snapshot aliases live VM state")
	}
	// Nor does mutating the live data center change a taken snapshot.
	dc.Servers[0].VMs()[1].Demand = 7
	if snap.Servers[0].VMs[1].Demand == 7 {
		t.Fatal("snapshot aliases live VM state")
	}
}

// TestSnapshotMidMigration checkpoints while a two-phase migration is in
// flight. Reservations are deliberately not serialized — the VM is hosted
// on its source until commit, so the snapshot records the only durable
// truth: the VM on the source, the reservation-woken target in whatever
// power state it reached.
func TestSnapshotMidMigration(t *testing.T) {
	dc := snapshotDC(t)
	v1 := dc.Servers[0].VMs()[0]
	tx, err := dc.BeginMigration(v1, dc.Servers[2]) // sleeping: reservation wakes it
	if err != nil {
		t.Fatal(err)
	}
	snap := dc.Snapshot()
	if vms := snap.Servers[0].VMs; len(vms) != 2 || vms[0].ID != v1.ID {
		t.Fatalf("in-flight VM recorded as %+v, want on source %s", vms, dc.Servers[0].ID)
	}
	if target := snap.Servers[2]; target.Sleeping || len(target.VMs) != 0 {
		t.Fatalf("reservation-woken target recorded as %+v, want active and empty", target)
	}
	// The transaction is untouched by the checkpoint: it can still roll
	// back cleanly.
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if dc.HostOf(v1.ID) != dc.Servers[0] {
		t.Fatal("rollback after checkpoint lost the source placement")
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotOfEmptyDC(t *testing.T) {
	dc, err := NewDataCenter([]*Server{NewServer("s", power.TypeMid())})
	if err != nil {
		t.Fatal(err)
	}
	back := jsonRoundTrip(t, dc.Snapshot())
	if len(back.Servers) != 1 || back.Servers[0].ID != "s" || len(back.Servers[0].VMs) != 0 {
		t.Fatalf("empty DC round trip = %+v", back)
	}
}
