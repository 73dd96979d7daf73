package optimizer

import (
	"fmt"
	"math/rand"
	"testing"

	"vdcpower/internal/cluster"
	"vdcpower/internal/packing"
	"vdcpower/internal/power"
)

// mixedDC builds a data center with nHigh/nMid/nLow servers of the three
// standard types, all active and empty.
func mixedDC(t *testing.T, nHigh, nMid, nLow int) *cluster.DataCenter {
	t.Helper()
	var servers []*cluster.Server
	add := func(prefix string, n int, spec power.Spec) {
		for i := 0; i < n; i++ {
			servers = append(servers, cluster.NewServer(fmt.Sprintf("%s%d", prefix, i), spec))
		}
	}
	add("high", nHigh, power.TypeHighEnd())
	add("mid", nMid, power.TypeMid())
	add("low", nLow, power.TypeLow())
	dc, err := cluster.NewDataCenter(servers)
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

func placeVM(t *testing.T, dc *cluster.DataCenter, id string, demand, mem float64, srv *cluster.Server) *cluster.VM {
	t.Helper()
	v := &cluster.VM{ID: id, Demand: demand, MemoryGB: mem}
	if err := dc.Place(v, srv); err != nil {
		t.Fatal(err)
	}
	return v
}

// pac packs items as overload relief does, onto views of a data center
// whose servers have the bins' IDs, capacities and efficiencies, most
// power-efficient first. It returns the plan.
func pac(t *testing.T, items []packing.Item, bins []*packing.Bin) *packing.Plan {
	t.Helper()
	servers := make([]*cluster.Server, len(bins))
	for i, b := range bins {
		servers[i] = cluster.NewServer(b.ID, power.Spec{Name: b.ID, Cores: 1, MaxFreq: b.CPUCap,
			PStates: []float64{b.CPUCap}, PDynMax: b.CPUCap / b.Efficiency, MemoryGB: b.MemCap})
	}
	dc, err := cluster.NewDataCenter(servers)
	if err != nil {
		t.Fatal(err)
	}
	pl := &packing.Plan{Items: items}
	(&passState{}).place(dc, pl, packing.VectorConstraint{}, packing.DefaultMinSlackConfig())
	return pl
}

func TestPACPrefersEfficientBins(t *testing.T) {
	bins := []*packing.Bin{
		{ID: "low", CPUCap: 3, MemCap: 8, Efficiency: 0.021},
		{ID: "high", CPUCap: 12, MemCap: 16, Efficiency: 0.040},
	}
	items := []packing.Item{
		{ID: "a", CPU: 2, Mem: 1},
		{ID: "b", CPU: 2, Mem: 1},
	}
	pl := pac(t, items, bins)
	if len(pl.Rest) != 0 {
		t.Fatalf("unplaced: %v", pl.Rest)
	}
	for i, b := range pl.Targets {
		if b.ID != "high" {
			t.Fatalf("item %s on %s, want high-efficiency bin", items[i].ID, b.ID)
		}
	}
}

func TestPACOverflowsToNextBin(t *testing.T) {
	bins := []*packing.Bin{
		{ID: "high", CPUCap: 4, MemCap: 16, Efficiency: 0.040},
		{ID: "low", CPUCap: 4, MemCap: 16, Efficiency: 0.021},
	}
	items := []packing.Item{
		{ID: "a", CPU: 3, Mem: 1},
		{ID: "b", CPU: 3, Mem: 1},
	}
	pl := pac(t, items, bins)
	if len(pl.Rest) != 0 {
		t.Fatalf("unplaced: %v", pl.Rest)
	}
	if pl.Targets[0] == pl.Targets[1] {
		t.Fatal("both items on one 4-GHz bin is infeasible")
	}
}

func TestPACReportsUnplaceable(t *testing.T) {
	bins := []*packing.Bin{{ID: "b", CPUCap: 1, MemCap: 1, Efficiency: 1}}
	items := []packing.Item{{ID: "huge", CPU: 50, Mem: 1}}
	if pl := pac(t, items, bins); len(pl.Rest) != 1 || pl.Targets[0] != nil {
		t.Fatalf("unplaced %v, target %v: expected the item unplaced", pl.Rest, pl.Targets[0])
	}
}

func TestIPACConsolidatesScatteredVMs(t *testing.T) {
	// 6 tiny VMs scattered over 6 servers consolidate onto the high-end
	// server; the rest sleep.
	dc := mixedDC(t, 1, 3, 2)
	for i, s := range dc.Servers {
		placeVM(t, dc, fmt.Sprintf("v%d", i), 1.0, 1.0, s)
	}
	ipac := NewIPAC()
	rep, err := ipac.Consolidate(dc)
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if rep.ActiveAfter >= rep.ActiveBefore {
		t.Fatalf("no consolidation: %s", rep)
	}
	// All 6 GHz of demand fits the 12-GHz high-end server.
	if got := dc.NumActive(); got != 1 {
		t.Fatalf("active = %d, want 1", got)
	}
	high := dc.Servers[0]
	if high.NumVMs() != 6 {
		t.Fatalf("high-end hosts %d VMs, want 6", high.NumVMs())
	}
}

func TestIPACRespectsMemoryConstraint(t *testing.T) {
	// Both VMs fit any one server by CPU, but their combined memory
	// (24 GB) exceeds the 16 GB of a high-end server: consolidation onto
	// one host must be refused.
	dc := mixedDC(t, 3, 0, 0)
	placeVM(t, dc, "v0", 1, 12, dc.Servers[1])
	placeVM(t, dc, "v1", 1, 12, dc.Servers[2])
	ipac := NewIPAC()
	if _, err := ipac.Consolidate(dc); err != nil {
		t.Fatal(err)
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, s := range dc.Servers {
		if s.TotalMemory() > s.Spec.MemoryGB+1e-9 {
			t.Fatalf("server %s memory oversubscribed: %v > %v", s.ID, s.TotalMemory(), s.Spec.MemoryGB)
		}
	}
}

func TestIPACReducesPower(t *testing.T) {
	dc := mixedDC(t, 2, 4, 4)
	rng := rand.New(rand.NewSource(1))
	i := 0
	for _, s := range dc.Servers {
		placeVM(t, dc, fmt.Sprintf("v%d", i), 0.5+rng.Float64(), 1, s)
		i++
	}
	for _, s := range dc.Servers {
		s.ApplyDVFS()
	}
	before := dc.TotalPower()
	ipac := NewIPAC()
	if _, err := ipac.Consolidate(dc); err != nil {
		t.Fatal(err)
	}
	for _, s := range dc.Active() {
		s.ApplyDVFS()
	}
	after := dc.TotalPower()
	if after >= before {
		t.Fatalf("power did not drop: %v -> %v", before, after)
	}
}

func TestIPACResolvesOverload(t *testing.T) {
	dc := mixedDC(t, 1, 2, 0)
	mid := dc.Servers[1] // 4 GHz capacity
	placeVM(t, dc, "a", 2.5, 1, mid)
	placeVM(t, dc, "b", 2.5, 1, mid) // 5 > 4: overloaded
	if !mid.Overloaded() {
		t.Fatal("setup: server should be overloaded")
	}
	ipac := NewIPAC()
	rep, err := ipac.Consolidate(dc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unresolved != 0 {
		t.Fatalf("unresolved overloads: %d", rep.Unresolved)
	}
	for _, s := range dc.Servers {
		if s.Overloaded() {
			t.Fatalf("server %s still overloaded", s.ID)
		}
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIPACOverloadWakesSleepingServer(t *testing.T) {
	dc := mixedDC(t, 0, 2, 0)
	dc.Servers[1].Sleep()
	s := dc.Servers[0]
	placeVM(t, dc, "a", 3, 1, s)
	placeVM(t, dc, "b", 3, 1, s) // 6 > 4: overloaded, only a sleeper available
	ipac := NewIPAC()
	rep, err := ipac.Consolidate(dc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unresolved != 0 {
		t.Fatalf("unresolved: %d", rep.Unresolved)
	}
	if dc.Servers[1].State() != cluster.Active {
		t.Fatal("sleeping server was not woken for overload relief")
	}
}

func TestIPACUnresolvableOverloadReported(t *testing.T) {
	dc := mixedDC(t, 0, 1, 0)
	s := dc.Servers[0]
	placeVM(t, dc, "a", 3, 1, s)
	placeVM(t, dc, "b", 3, 1, s)
	ipac := NewIPAC()
	rep, err := ipac.Consolidate(dc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unresolved == 0 {
		t.Fatal("expected unresolved overload with nowhere to go")
	}
}

func TestIPACDenyAllPolicyBlocksConsolidation(t *testing.T) {
	dc := mixedDC(t, 1, 2, 0)
	placeVM(t, dc, "a", 1, 1, dc.Servers[1])
	placeVM(t, dc, "b", 1, 1, dc.Servers[2])
	ipac := NewIPAC()
	ipac.Policy = DenyAll{}
	rep, err := ipac.Consolidate(dc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations != 0 {
		t.Fatalf("migrations happened despite deny-all: %d", rep.Migrations)
	}
	if rep.Vetoed == 0 {
		t.Fatal("expected vetoes to be recorded")
	}
}

func TestIPACIdempotentSecondRun(t *testing.T) {
	dc := mixedDC(t, 1, 3, 2)
	for i, s := range dc.Servers {
		placeVM(t, dc, fmt.Sprintf("v%d", i), 0.8, 1, s)
	}
	ipac := NewIPAC()
	if _, err := ipac.Consolidate(dc); err != nil {
		t.Fatal(err)
	}
	rep2, err := ipac.Consolidate(dc)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Migrations != 0 {
		t.Fatalf("second run still migrates: %s", rep2)
	}
}

func TestPMapperConsolidates(t *testing.T) {
	dc := mixedDC(t, 1, 3, 2)
	for i, s := range dc.Servers {
		placeVM(t, dc, fmt.Sprintf("v%d", i), 1.0, 1.0, s)
	}
	pm := NewPMapper()
	rep, err := pm.Consolidate(dc)
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if rep.ActiveAfter >= rep.ActiveBefore {
		t.Fatalf("pMapper did not consolidate: %s", rep)
	}
	for _, s := range dc.Servers {
		if s.Overloaded() {
			t.Fatalf("server %s overloaded after pMapper", s.ID)
		}
		if s.TotalMemory() > s.Spec.MemoryGB+1e-9 {
			t.Fatalf("server %s memory oversubscribed", s.ID)
		}
	}
}

func TestPMapperNoDVFS(t *testing.T) {
	if NewPMapper().UsesDVFS() {
		t.Fatal("pMapper must not use DVFS (Section VII comparison)")
	}
	if !NewIPAC().UsesDVFS() {
		t.Fatal("IPAC must use DVFS")
	}
}

func TestIPACBeatsOrMatchesPMapperActiveServers(t *testing.T) {
	// On identical random workloads, IPAC (Minimum Slack) should need no
	// more active servers than pMapper (FFD) — the Section VII claim.
	for seed := int64(0); seed < 8; seed++ {
		build := func(t *testing.T) *cluster.DataCenter {
			dc := mixedDC(t, 3, 5, 5)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 24; i++ {
				srv := dc.Servers[i%len(dc.Servers)]
				v := &cluster.VM{ID: fmt.Sprintf("v%02d", i), Demand: 0.3 + 1.2*rng.Float64(), MemoryGB: 0.5 + rng.Float64()}
				if err := dc.Place(v, srv); err != nil {
					t.Fatal(err)
				}
			}
			return dc
		}
		dcA := build(t)
		dcB := build(t)
		// Compare packing quality at equal fill levels: disable IPAC's
		// growth headroom, since pMapper packs to 100%.
		ipac := NewIPAC()
		ipac.Constraint = packing.VectorConstraint{}
		if _, err := ipac.Consolidate(dcA); err != nil {
			t.Fatal(err)
		}
		if _, err := NewPMapper().Consolidate(dcB); err != nil {
			t.Fatal(err)
		}
		if dcA.NumActive() > dcB.NumActive() {
			t.Fatalf("seed %d: IPAC active %d > pMapper %d", seed, dcA.NumActive(), dcB.NumActive())
		}
	}
}

func TestNoOpConsolidator(t *testing.T) {
	dc := mixedDC(t, 1, 1, 0)
	placeVM(t, dc, "v", 1, 1, dc.Servers[1])
	rep, err := NoOp{}.Consolidate(dc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations != 0 || rep.ActiveBefore != rep.ActiveAfter {
		t.Fatalf("NoOp acted: %s", rep)
	}
	if (NoOp{}).Name() == "" || (NoOp{DVFS: true}).Name() == "" {
		t.Fatal("empty names")
	}
	if (NoOp{DVFS: true}).UsesDVFS() != true || (NoOp{}).UsesDVFS() != false {
		t.Fatal("NoOp DVFS flag wrong")
	}
}

func TestEstimateBenefit(t *testing.T) {
	high := cluster.NewServer("h", power.TypeHighEnd())
	low := cluster.NewServer("l", power.TypeLow())
	dc, err := cluster.NewDataCenter([]*cluster.Server{high, low})
	if err != nil {
		t.Fatal(err)
	}
	v := &cluster.VM{ID: "v", Demand: 2, MemoryGB: 1}
	if err := dc.Place(v, low); err != nil {
		t.Fatal(err)
	}
	// Moving from an inefficient to an efficient server, emptying the
	// source, must show a positive benefit.
	if b := EstimateBenefit(v, low, high); b <= 0 {
		t.Fatalf("benefit = %v, want > 0", b)
	}
	// The reverse direction is a loss (no sleep bonus: high hosts nothing
	// but the VM isn't there; craft a hosted case).
	if err := dc.Remove(v); err != nil {
		t.Fatal(err)
	}
	if err := dc.Place(v, high); err != nil {
		t.Fatal(err)
	}
	v2 := &cluster.VM{ID: "v2", Demand: 1, MemoryGB: 1}
	if err := dc.Place(v2, high); err != nil {
		t.Fatal(err)
	}
	if b := EstimateBenefit(v2, high, low); b >= 0 {
		t.Fatalf("benefit toward less efficient server = %v, want < 0", b)
	}
}

func TestPolicies(t *testing.T) {
	high := cluster.NewServer("h", power.TypeHighEnd())
	low := cluster.NewServer("l", power.TypeLow())
	v := &cluster.VM{ID: "v", Demand: 1, MemoryGB: 4}
	if !(AllowAll{}).Allow(v, low, high, -5) {
		t.Fatal("AllowAll denied")
	}
	if (DenyAll{}).Allow(v, low, high, 100) {
		t.Fatal("DenyAll allowed")
	}
	bp := BandwidthPriced{WattsPerGB: 3} // cost = 12 W
	if bp.Allow(v, low, high, 10) || !bp.Allow(v, low, high, 13) {
		t.Fatal("BandwidthPriced threshold wrong")
	}
	for _, p := range []CostPolicy{AllowAll{}, DenyAll{}, bp} {
		if p.Name() == "" {
			t.Fatal("empty policy name")
		}
	}
}

func TestReportString(t *testing.T) {
	r := Report{Migrations: 3, ActiveBefore: 5, ActiveAfter: 2}
	if r.String() == "" {
		t.Fatal("empty report string")
	}
}

func BenchmarkIPAC50Servers(b *testing.B) {
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		var servers []*cluster.Server
		specs := power.AllTypes()
		for i := 0; i < 50; i++ {
			servers = append(servers, cluster.NewServer(fmt.Sprintf("s%d", i), specs[i%3]))
		}
		dc, _ := cluster.NewDataCenter(servers)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < 100; i++ {
			v := &cluster.VM{ID: fmt.Sprintf("v%d", i), Demand: 0.2 + rng.Float64(), MemoryGB: 0.5}
			_ = dc.Place(v, servers[i%50])
		}
		b.StartTimer()
		if _, err := NewIPAC().Consolidate(dc); err != nil {
			b.Fatal(err)
		}
	}
}

// SearchEffort reads IPAC's accumulated branch-and-bound effort, also
// through the noDVFS wrapper, and reports zero for policies that do not
// search.
func TestSearchEffort(t *testing.T) {
	for _, c := range []Consolidator{NewPMapper(), WithoutDVFS{Inner: NewPMapper()}} {
		if n, w := SearchEffort(c); n != 0 || w != 0 {
			t.Fatalf("%s effort = %d/%d, want 0/0", c.Name(), n, w)
		}
	}
	ipac := NewIPAC()
	if _, err := (WithoutDVFS{Inner: ipac}).Consolidate(scatteredDC(t)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []Consolidator{ipac, WithoutDVFS{Inner: ipac}} {
		if n, _ := SearchEffort(c); n == 0 || n != ipac.SearchStats().Nodes {
			t.Fatalf("%s effort = %d nodes, stats say %d", c.Name(), n, ipac.SearchStats().Nodes)
		}
	}
}
