package cluster

import (
	"testing"
)

func TestCordonRejectsPlacement(t *testing.T) {
	dc := testDC(t, 2)
	dc.Servers[0].Cordon()
	if !dc.Servers[0].Cordoned() {
		t.Fatal("Cordoned() = false")
	}
	if err := dc.Place(newVM("v1", 1, 1), dc.Servers[0]); err == nil {
		t.Fatal("placement onto cordoned server accepted")
	}
	if err := dc.Place(newVM("v1", 1, 1), dc.Servers[1]); err != nil {
		t.Fatal(err)
	}
}

func TestCordonRejectsMigrationTarget(t *testing.T) {
	dc := testDC(t, 2)
	v := newVM("v1", 1, 1)
	if err := dc.Place(v, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	dc.Servers[1].Cordon()
	if _, err := dc.Migrate(v, dc.Servers[1]); err == nil {
		t.Fatal("migration onto cordoned server accepted")
	}
	// Migrating AWAY from a cordoned server must work (that's the point).
	dc.Servers[0].Cordon()
	dc.Servers[1].Uncordon()
	if _, err := dc.Migrate(v, dc.Servers[1]); err != nil {
		t.Fatal(err)
	}
}

func TestCordonSurvivesSnapshot(t *testing.T) {
	dc := testDC(t, 2)
	dc.Servers[1].Cordon()
	back := jsonRoundTrip(t, dc.Snapshot())
	if !back.Servers[1].Cordoned || back.Servers[0].Cordoned {
		t.Fatal("cordon state lost in snapshot round trip")
	}
}

func TestCordonedServerKeepsServing(t *testing.T) {
	dc := testDC(t, 1)
	v := newVM("v1", 2, 1)
	if err := dc.Place(v, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	dc.Servers[0].Cordon()
	// Existing VM stays hosted; power and DVFS still work.
	if dc.Servers[0].NumVMs() != 1 {
		t.Fatal("cordon evicted a VM")
	}
	if f := dc.Servers[0].ApplyDVFS(); f <= 0 {
		t.Fatalf("DVFS broken on cordoned server: %v", f)
	}
}
