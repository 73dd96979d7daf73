package cluster

import (
	"fmt"
	"math"
	"testing"

	"vdcpower/internal/power"
)

func newVM(id string, demand, mem float64) *VM {
	return &VM{ID: id, Demand: demand, MemoryGB: mem}
}

func testDC(t *testing.T, n int) *DataCenter {
	t.Helper()
	var servers []*Server
	for i := 0; i < n; i++ {
		servers = append(servers, NewServer(fmt.Sprintf("s%d", i), power.TypeMid()))
	}
	dc, err := NewDataCenter(servers)
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

func TestVMValidate(t *testing.T) {
	if err := newVM("a", 1, 1).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := newVM("a", 0, 0).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&VM{}).Validate(); err == nil {
		t.Fatal("empty ID must fail")
	}
	for _, c := range []struct {
		name        string
		demand, mem float64
	}{
		{"negative demand", -1, 1},
		{"negative memory", 1, -1},
		{"NaN demand", math.NaN(), 1},
		{"+Inf demand", math.Inf(1), 1},
		{"-Inf demand", math.Inf(-1), 1},
		{"NaN memory", 1, math.NaN()},
		{"+Inf memory", 1, math.Inf(1)},
	} {
		if err := newVM("a", c.demand, c.mem).Validate(); err == nil {
			t.Errorf("%s must fail", c.name)
		}
	}
}

func TestServerLifecycle(t *testing.T) {
	s := NewServer("s1", power.TypeHighEnd())
	if s.State() != Active {
		t.Fatal("new server must be active")
	}
	if s.Freq() != 3.0 {
		t.Fatalf("Freq = %v", s.Freq())
	}
	s.Sleep()
	if s.State() != Sleeping {
		t.Fatal("Sleep failed")
	}
	if s.Power() != s.Spec.PSleep {
		t.Fatalf("sleeping power = %v", s.Power())
	}
	s.Wake()
	if s.State() != Active || s.Freq() != 3.0 {
		t.Fatal("Wake failed")
	}
	if s.State().String() == "" || Sleeping.String() == "" {
		t.Fatal("State String empty")
	}
}

func TestSleepWithVMsPanics(t *testing.T) {
	dc := testDC(t, 1)
	if err := dc.Place(newVM("v1", 1, 1), dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	dc.Servers[0].Sleep()
}

func TestSetFreqValidPState(t *testing.T) {
	s := NewServer("s1", power.TypeMid())
	s.SetFreq(1.2)
	if s.Freq() != 1.2 {
		t.Fatalf("Freq = %v", s.Freq())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-P-state")
		}
	}()
	s.SetFreq(1.23)
}

func TestApplyDVFSSelectsLowestSufficient(t *testing.T) {
	dc := testDC(t, 1) // TypeMid: 2 cores, P-states .8 1.2 1.6 2.0
	s := dc.Servers[0]
	if err := dc.Place(newVM("v1", 1.5, 1), s); err != nil {
		t.Fatal(err)
	}
	if f := s.ApplyDVFS(); f != 0.8 { // 2*0.8 = 1.6 >= 1.5
		t.Fatalf("DVFS chose %v, want 0.8", f)
	}
	if err := dc.Place(newVM("v2", 1.8, 1), s); err != nil {
		t.Fatal(err)
	}
	// Demand 3.3 GHz: 2×1.6 = 3.2 is short, so 2.0 is required.
	if f := s.ApplyDVFS(); f != 2.0 {
		t.Fatalf("DVFS chose %v, want 2.0", f)
	}
}

func TestDemandMemorySlackUtilization(t *testing.T) {
	dc := testDC(t, 1)
	s := dc.Servers[0]
	if err := dc.Place(newVM("v1", 1.0, 2), s); err != nil {
		t.Fatal(err)
	}
	if err := dc.Place(newVM("v2", 0.5, 3), s); err != nil {
		t.Fatal(err)
	}
	if s.TotalDemand() != 1.5 || s.TotalMemory() != 5 {
		t.Fatalf("demand=%v mem=%v", s.TotalDemand(), s.TotalMemory())
	}
	if got := s.Slack(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("Slack = %v, want 2.5", got)
	}
	s.SetFreq(2.0)
	if got := s.Utilization(); math.Abs(got-1.5/4) > 1e-12 {
		t.Fatalf("Utilization = %v", got)
	}
	if s.Overloaded() {
		t.Fatal("not overloaded")
	}
	if err := dc.Place(newVM("v3", 5, 0), s); err != nil {
		t.Fatal(err)
	}
	if !s.Overloaded() {
		t.Fatal("should be overloaded at 6.5 > 4")
	}
	if s.Utilization() != 1 {
		t.Fatal("utilization must clamp at 1")
	}
}

func TestPlaceDuplicateFails(t *testing.T) {
	dc := testDC(t, 2)
	v := newVM("v1", 1, 1)
	if err := dc.Place(v, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	if err := dc.Place(v, dc.Servers[1]); err == nil {
		t.Fatal("duplicate placement must fail")
	}
}

func TestPlaceWakesSleepingServer(t *testing.T) {
	dc := testDC(t, 1)
	dc.Servers[0].Sleep()
	if err := dc.Place(newVM("v1", 1, 1), dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	if dc.Servers[0].State() != Active {
		t.Fatal("Place must wake the server")
	}
}

func TestMigrate(t *testing.T) {
	dc := testDC(t, 2)
	v := newVM("v1", 1, 1)
	if err := dc.Place(v, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	mig, err := dc.Migrate(v, dc.Servers[1])
	if err != nil {
		t.Fatal(err)
	}
	if mig.From != dc.Servers[0] || mig.To != dc.Servers[1] || mig.VM != v {
		t.Fatalf("bad migration record %+v", mig)
	}
	if dc.HostOf("v1") != dc.Servers[1] {
		t.Fatal("index not updated")
	}
	if dc.Servers[0].NumVMs() != 0 || dc.Servers[1].NumVMs() != 1 {
		t.Fatal("VM lists not updated")
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateErrors(t *testing.T) {
	dc := testDC(t, 2)
	v := newVM("v1", 1, 1)
	if _, err := dc.Migrate(v, dc.Servers[0]); err == nil {
		t.Fatal("unplaced VM must fail")
	}
	if err := dc.Place(v, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Migrate(v, dc.Servers[0]); err == nil {
		t.Fatal("self-migration must fail")
	}
}

func TestMigrateWakesTarget(t *testing.T) {
	dc := testDC(t, 2)
	v := newVM("v1", 1, 1)
	if err := dc.Place(v, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	dc.Servers[1].Sleep()
	if _, err := dc.Migrate(v, dc.Servers[1]); err != nil {
		t.Fatal(err)
	}
	if dc.Servers[1].State() != Active {
		t.Fatal("target not woken")
	}
}

func TestRemove(t *testing.T) {
	dc := testDC(t, 1)
	v := newVM("v1", 1, 1)
	if err := dc.Place(v, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	if err := dc.Remove(v); err != nil {
		t.Fatal(err)
	}
	if dc.HostOf("v1") != nil || dc.Servers[0].NumVMs() != 0 {
		t.Fatal("Remove incomplete")
	}
	if err := dc.Remove(v); err == nil {
		t.Fatal("double remove must fail")
	}
}

func TestVMsSortedAndComplete(t *testing.T) {
	dc := testDC(t, 2)
	for _, id := range []string{"vc", "va", "vb"} {
		if err := dc.Place(newVM(id, 0.1, 0.1), dc.Servers[0]); err != nil {
			t.Fatal(err)
		}
	}
	vms := dc.VMs()
	if len(vms) != 3 || vms[0].ID != "va" || vms[2].ID != "vc" {
		t.Fatalf("VMs = %v", vms)
	}
}

func TestSleepIdleAndCounts(t *testing.T) {
	dc := testDC(t, 3)
	if err := dc.Place(newVM("v1", 1, 1), dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	n := dc.SleepIdle()
	if n != 2 {
		t.Fatalf("SleepIdle = %d, want 2", n)
	}
	if dc.NumActive() != 1 {
		t.Fatalf("NumActive = %d", dc.NumActive())
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTotalPowerSums(t *testing.T) {
	dc := testDC(t, 2)
	dc.Servers[1].Sleep()
	want := dc.Servers[0].Power() + dc.Servers[1].Spec.PSleep
	if got := dc.TotalPower(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("TotalPower = %v, want %v", got, want)
	}
}

func TestNewDataCenterDuplicateID(t *testing.T) {
	s1 := NewServer("dup", power.TypeMid())
	s2 := NewServer("dup", power.TypeMid())
	if _, err := NewDataCenter([]*Server{s1, s2}); err == nil {
		t.Fatal("duplicate IDs must fail")
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	dc := testDC(t, 2)
	v := newVM("v1", 1, 1)
	if err := dc.Place(v, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	// Corrupt: move the VM behind the index's back.
	dc.Servers[0].unhost(v)
	dc.Servers[1].host(v)
	if err := dc.CheckInvariants(); err == nil {
		t.Fatal("corruption not detected")
	}
}
