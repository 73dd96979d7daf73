package check

import (
	"math"
	"strings"
	"testing"

	"vdcpower/internal/cluster"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/packing"
	"vdcpower/internal/power"
)

// testDC builds a two-server data center with two placed VMs.
func testDC(t *testing.T) (*cluster.DataCenter, []*cluster.VM) {
	t.Helper()
	s1 := cluster.NewServer("s1", power.TypeHighEnd())
	s2 := cluster.NewServer("s2", power.TypeMid())
	dc, err := cluster.NewDataCenter([]*cluster.Server{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	vms := []*cluster.VM{
		{ID: "v1", Demand: 2, MemoryGB: 4},
		{ID: "v2", Demand: 1, MemoryGB: 2},
	}
	if err := dc.Place(vms[0], s1); err != nil {
		t.Fatal(err)
	}
	if err := dc.Place(vms[1], s2); err != nil {
		t.Fatal(err)
	}
	return dc, vms
}

// findInvariant pulls one law out of the registry by name.
func findInvariant(t *testing.T, name string) Invariant {
	t.Helper()
	for _, inv := range All() {
		if inv.Name() == name {
			return inv
		}
	}
	t.Fatalf("invariant %q not registered", name)
	return nil
}

// Each test below first shows the invariant accepts a healthy state, then
// shows a deliberately broken mutation is caught.

func TestVMConservationCatchesLostVM(t *testing.T) {
	dc, vms := testDC(t)
	inv := findInvariant(t, "cluster/vm-conservation")
	if err := inv.Check(Event{Kind: EvInit, DC: dc}); err != nil {
		t.Fatalf("baseline event rejected: %v", err)
	}
	// A migration conserves the set.
	tx, err := dc.BeginMigration(vms[1], dc.Servers[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := inv.Check(Event{Kind: EvConsolidate, DC: dc}); err != nil {
		t.Fatalf("migration flagged as loss: %v", err)
	}
	// Mutation: drop a VM from the data center entirely.
	if err := dc.Remove(vms[0]); err != nil {
		t.Fatal(err)
	}
	err = inv.Check(Event{Kind: EvStep, DC: dc})
	if err == nil {
		t.Fatal("lost VM not caught")
	}
	if !strings.Contains(err.Error(), "v1") {
		t.Fatalf("diagnostic does not name the lost VM: %v", err)
	}
}

func TestVMConservationCatchesDuplicateID(t *testing.T) {
	dc, vms := testDC(t)
	inv := findInvariant(t, "cluster/vm-conservation")
	// Mutation: two hosted VMs sharing one ID (an index-corruption bug).
	vms[1].ID = "v1"
	if err := inv.Check(Event{Kind: EvInit, DC: dc}); err == nil {
		t.Fatal("duplicate VM ID not caught")
	}
}

func TestPStateValidCatchesOffTableFrequency(t *testing.T) {
	dc, _ := testDC(t)
	inv := findInvariant(t, "cluster/pstate-valid")
	if err := inv.Check(Event{Kind: EvStep, DC: dc}); err != nil {
		t.Fatalf("fresh servers rejected: %v", err)
	}
	dc.Servers[0].ApplyDVFS()
	if err := inv.Check(Event{Kind: EvStep, DC: dc}); err != nil {
		t.Fatalf("post-DVFS state rejected: %v", err)
	}
	// Mutation: shrink the P-state table under the server so its current
	// frequency is no longer a table entry.
	dc.Servers[0].Spec.PStates = []float64{9.9}
	if err := inv.Check(Event{Kind: EvStep, DC: dc}); err == nil {
		t.Fatal("off-table frequency not caught")
	}
}

func TestDVFSCoversDemandCatchesStarvedServer(t *testing.T) {
	dc, _ := testDC(t)
	inv := findInvariant(t, "cluster/dvfs-covers-demand")
	s1 := dc.Servers[0]
	big := &cluster.VM{ID: "v3", Demand: 7, MemoryGB: 1}
	if err := dc.Place(big, s1); err != nil {
		t.Fatal(err)
	}
	s1.ApplyDVFS()
	if err := inv.Check(Event{Kind: EvStep, DC: dc}); err != nil {
		t.Fatalf("arbitrated state rejected: %v", err)
	}
	// Mutation: throttle to the lowest P-state (4 GHz granted) while the
	// hosted demand is 9 GHz — a covered demand (≤ 12 GHz capacity) that
	// the chosen frequency starves.
	s1.SetFreq(s1.Spec.PStates[0])
	if err := inv.Check(Event{Kind: EvStep, DC: dc}); err == nil {
		t.Fatal("starving P-state not caught")
	}
	// A genuinely overloaded server is out of scope (no P-state covers it).
	over := &cluster.VM{ID: "v4", Demand: 20, MemoryGB: 1}
	if err := dc.Place(over, s1); err != nil {
		t.Fatal(err)
	}
	s1.ApplyDVFS()
	if err := inv.Check(Event{Kind: EvStep, DC: dc}); err != nil {
		t.Fatalf("overloaded server flagged against DVFS: %v", err)
	}
}

func TestMemoryCapacityCatchesOversubscription(t *testing.T) {
	dc, _ := testDC(t)
	inv := findInvariant(t, "cluster/memory-capacity")
	if err := inv.Check(Event{Kind: EvStep, DC: dc}); err != nil {
		t.Fatalf("healthy placement rejected: %v", err)
	}
	// Mutation: cluster.Place checks no memory constraint, so a hog lands
	// on the 16 GB server unhindered — exactly what the invariant is for.
	hog := &cluster.VM{ID: "v3", Demand: 0.1, MemoryGB: 100}
	if err := dc.Place(hog, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	err := inv.Check(Event{Kind: EvStep, DC: dc})
	if err == nil {
		t.Fatal("memory oversubscription not caught")
	}
	if !strings.Contains(err.Error(), "s1") {
		t.Fatalf("diagnostic does not name the server: %v", err)
	}
}

func TestIndexConsistentCatchesCorruptedIndex(t *testing.T) {
	dc, vms := testDC(t)
	inv := findInvariant(t, "cluster/index-consistent")
	if err := inv.Check(Event{Kind: EvStep, DC: dc}); err != nil {
		t.Fatalf("healthy index rejected: %v", err)
	}
	// Mutation: renaming a placed VM detaches it from the index.
	vms[0].ID = "renamed"
	if err := inv.Check(Event{Kind: EvStep, DC: dc}); err == nil {
		t.Fatal("corrupted VM index not caught")
	}
}

func TestIPACActiveMonotoneCatchesServerGrowth(t *testing.T) {
	inv := findInvariant(t, "optimizer/ipac-active-monotone")
	grew := &optimizer.Report{ActiveBefore: 2, ActiveAfter: 3}
	ok := &optimizer.Report{ActiveBefore: 3, ActiveAfter: 2}
	if err := inv.Check(Event{Kind: EvConsolidate, Policy: "IPAC", Report: ok}); err != nil {
		t.Fatalf("shrinking pass rejected: %v", err)
	}
	// Mutation: an "IPAC" pass that woke a server with nothing overloaded.
	if err := inv.Check(Event{Kind: EvConsolidate, Policy: "IPAC", Report: grew}); err == nil {
		t.Fatal("active-server growth not caught")
	}
	// The DVFS-less ablation shares the guarantee via the name prefix.
	if err := inv.Check(Event{Kind: EvConsolidate, Policy: "IPAC-noDVFS", Report: grew}); err == nil {
		t.Fatal("active-server growth not caught for IPAC-noDVFS")
	}
	// Out of scope: overload relief may wake servers, and pMapper promises
	// nothing.
	if err := inv.Check(Event{Kind: EvConsolidate, Policy: "IPAC", OverloadedBefore: 1, Report: grew}); err != nil {
		t.Fatalf("overload-relief wake flagged: %v", err)
	}
	if err := inv.Check(Event{Kind: EvConsolidate, Policy: "pMapper", Report: grew}); err != nil {
		t.Fatalf("pMapper growth flagged: %v", err)
	}
}

func TestReportConsistentCatchesDishonestReport(t *testing.T) {
	dc, _ := testDC(t)
	inv := findInvariant(t, "optimizer/report-consistent")
	honest := &optimizer.Report{ActiveBefore: 2, ActiveAfter: dc.NumActive()}
	if err := inv.Check(Event{Kind: EvConsolidate, DC: dc, Report: honest}); err != nil {
		t.Fatalf("honest report rejected: %v", err)
	}
	// Mutation: counted migrations without recorded moves.
	phantom := &optimizer.Report{Migrations: 3, ActiveAfter: dc.NumActive()}
	if err := inv.Check(Event{Kind: EvConsolidate, DC: dc, Report: phantom}); err == nil {
		t.Fatal("phantom migration count not caught")
	}
	// Mutation: claimed active count disagrees with the data center.
	wrong := &optimizer.Report{ActiveAfter: dc.NumActive() + 5}
	if err := inv.Check(Event{Kind: EvWatchdog, DC: dc, Report: wrong}); err == nil {
		t.Fatal("wrong active count not caught")
	}
	// Mutation: negative counter.
	negative := &optimizer.Report{Vetoed: -1, ActiveAfter: dc.NumActive()}
	if err := inv.Check(Event{Kind: EvConsolidate, DC: dc, Report: negative}); err == nil {
		t.Fatal("negative counter not caught")
	}
}

func TestEnergyMonotoneCatchesDecrease(t *testing.T) {
	inv := findInvariant(t, "power/energy-monotone")
	for step, j := range []float64{0, 10, 10, 42.5} {
		if err := inv.Check(Event{Kind: EvStep, Step: step, EnergyJ: j, HasEnergy: true}); err != nil {
			t.Fatalf("monotone sequence rejected at %v J: %v", j, err)
		}
	}
	// Mutation: the meter runs backwards.
	if err := inv.Check(Event{Kind: EvStep, EnergyJ: 41, HasEnergy: true}); err == nil {
		t.Fatal("energy decrease not caught")
	}
}

func TestEnergyMonotoneCatchesBadReadings(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		inv := &energyMonotone{}
		if err := inv.Check(Event{Kind: EvStep, EnergyJ: bad, HasEnergy: true}); err == nil {
			t.Fatalf("energy reading %v not caught", bad)
		}
	}
}

func TestPowerBoundedCatchesImpossibleDraw(t *testing.T) {
	dc, _ := testDC(t)
	inv := findInvariant(t, "power/power-bounded")
	if err := inv.Check(Event{Kind: EvStep, DC: dc, PowerW: dc.TotalPower(), HasPower: true}); err != nil {
		t.Fatalf("actual fleet power rejected: %v", err)
	}
	// Mutation: draw above every server at max power plus sleep states.
	if err := inv.Check(Event{Kind: EvStep, DC: dc, PowerW: 1e6, HasPower: true}); err == nil {
		t.Fatal("above-ceiling power not caught")
	}
	for _, bad := range []float64{-5, math.NaN(), math.Inf(1)} {
		if err := inv.Check(Event{Kind: EvStep, PowerW: bad, HasPower: true}); err == nil {
			t.Fatalf("power reading %v not caught", bad)
		}
	}
}

// brokenObservation returns a healthy observed MinimumSlack invocation
// that callers then mutate.
func brokenObservation() *MinSlackObservation {
	bin := &packing.Bin{ID: "s1", CPUCap: 10, MemCap: 16}
	candidates := []packing.Item{
		{ID: "a", CPU: 6, Mem: 1},
		{ID: "b", CPU: 3, Mem: 1},
		{ID: "c", CPU: 2, Mem: 1},
	}
	cfg := packing.DefaultMinSlackConfig()
	return &MinSlackObservation{
		Bin:        bin,
		Candidates: candidates,
		Cons:       packing.VectorConstraint{},
		Config:     cfg,
		Result:     packing.MinimumSlack(bin, candidates, packing.VectorConstraint{}, cfg),
	}
}

func TestMinSlackFeasibleCatchesBrokenResults(t *testing.T) {
	inv := findInvariant(t, "packing/minslack-feasible")
	if err := inv.Check(Event{Kind: EvPacking, MinSlack: brokenObservation()}); err != nil {
		t.Fatalf("real result rejected: %v", err)
	}
	// Mutation: chosen item that was never a candidate.
	obs := brokenObservation()
	obs.Result.Chosen = append(obs.Result.Chosen, packing.Item{ID: "ghost", CPU: 0})
	if err := inv.Check(Event{Kind: EvPacking, MinSlack: obs}); err == nil {
		t.Fatal("non-candidate item not caught")
	}
	// Mutation: the same candidate packed twice.
	obs = brokenObservation()
	obs.Result.Chosen = append(obs.Result.Chosen, obs.Result.Chosen[0])
	if err := inv.Check(Event{Kind: EvPacking, MinSlack: obs}); err == nil {
		t.Fatal("duplicated item not caught")
	}
	// Mutation: slack that disagrees with the chosen CPU sum.
	obs = brokenObservation()
	obs.Result.Slack += 1.5
	if err := inv.Check(Event{Kind: EvPacking, MinSlack: obs}); err == nil {
		t.Fatal("slack accounting error not caught")
	}
}

func TestMinSlackVsFFDCatchesWeakSearch(t *testing.T) {
	inv := findInvariant(t, "packing/minslack-vs-ffd")
	if err := inv.Check(Event{Kind: EvPacking, MinSlack: brokenObservation()}); err != nil {
		t.Fatalf("real result rejected: %v", err)
	}
	// Mutation: a "search" that packed nothing even though greedy FFD
	// fills the bin to slack ≤ ε + 1.
	obs := brokenObservation()
	obs.Result.Chosen = nil
	obs.Result.Slack = obs.Bin.Slack()
	if err := inv.Check(Event{Kind: EvPacking, MinSlack: obs}); err == nil {
		t.Fatal("worse-than-FFD result not caught")
	}
	// Out of scope: a node budget below the candidate count voids the
	// first-path-is-FFD guarantee.
	obs.Config.MaxNodes = 1
	if err := inv.Check(Event{Kind: EvPacking, MinSlack: obs}); err != nil {
		t.Fatalf("budget-starved search flagged: %v", err)
	}
}

func TestSingleBinFFDSlack(t *testing.T) {
	bin := &packing.Bin{ID: "s1", CPUCap: 10, MemCap: 16}
	items := []packing.Item{
		{ID: "a", CPU: 6, Mem: 1},
		{ID: "b", CPU: 5, Mem: 1}, // skipped: 6+5 > 10
		{ID: "c", CPU: 3, Mem: 1},
	}
	got := SingleBinFFDSlack(bin, items, packing.VectorConstraint{})
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("FFD slack = %v, want 1", got)
	}
	// The constraint can reject items the CPU bound alone would accept:
	// with 50% headroom only 5 GHz may be planned, so a is skipped and b
	// fills the budget exactly.
	tight := packing.VectorConstraint{CPUHeadroom: 0.5}
	got = SingleBinFFDSlack(bin, items, tight)
	if math.Abs(got-5) > 1e-12 {
		t.Fatalf("constrained FFD slack = %v, want 5", got)
	}
	if bin.CPUUsed() != 0 || len(bin.Items()) != 0 {
		t.Fatal("SingleBinFFDSlack mutated the bin")
	}
	// Load already planned onto the bin counts: after 2 GHz, only a fits.
	bin.Add(packing.Item{ID: "planned", CPU: 2, Mem: 1})
	if got = SingleBinFFDSlack(bin, items, packing.VectorConstraint{}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("FFD slack over a loaded bin = %v, want 2", got)
	}
	if len(bin.Items()) != 1 {
		t.Fatal("SingleBinFFDSlack mutated the loaded bin")
	}
}

func TestCountOverloaded(t *testing.T) {
	dc, _ := testDC(t)
	if got := CountOverloaded(dc); got != 0 {
		t.Fatalf("CountOverloaded = %d on a healthy fleet", got)
	}
	over := &cluster.VM{ID: "big", Demand: 50, MemoryGB: 1}
	if err := dc.Place(over, dc.Servers[0]); err != nil {
		t.Fatal(err)
	}
	if got := CountOverloaded(dc); got != 1 {
		t.Fatalf("CountOverloaded = %d, want 1", got)
	}
}
