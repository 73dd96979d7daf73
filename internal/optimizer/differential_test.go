package optimizer

// Differential test of the consolidation pass against its per-round
// rebuild in reference_test.go. Two identical data centers go through
// the same seeded history — demands redrawn between passes so servers
// overload, cordons and crashes, a vetoing policy, a fault plane with
// migration aborts and pass errors — one under IPAC and one under
// refIPAC. After every pass the reports, the fleet and the search effort
// must agree exactly.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"vdcpower/internal/cluster"
	"vdcpower/internal/fault"
	"vdcpower/internal/packing"
	"vdcpower/internal/power"
	"vdcpower/internal/race"
	"vdcpower/internal/telemetry"
)

// hashVeto vetoes a deterministic quarter of the moves, keyed on the VM
// and the target.
type hashVeto struct{}

func (hashVeto) Allow(vm *cluster.VM, _, to *cluster.Server, _ float64) bool {
	h := fnv.New32a()
	h.Write([]byte(vm.ID + ">" + to.ID))
	return h.Sum32()%4 != 0
}

func (hashVeto) Name() string { return "hash-veto" }

// diffWorld is one side of the differential run.
type diffWorld struct {
	dc    *cluster.DataCenter
	cons  Consolidator
	stats *packing.SearchStats
	inj   *fault.Injector
}

// buildDiffDC materialises a seeded fleet: servers of the three types
// in a seeded mix, VMs piled onto the first third of the fleet (so some
// servers start overloaded), the rest asleep.
func buildDiffDC(t *testing.T, seed int64, n int) *cluster.DataCenter {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	types := power.AllTypes()
	servers := make([]*cluster.Server, n)
	for i := range servers {
		servers[i] = cluster.NewServer(fmt.Sprintf("s%03d", i), types[r.Intn(len(types))])
	}
	dc, err := cluster.NewDataCenter(servers)
	if err != nil {
		t.Fatal(err)
	}
	hosts := n/3 + 1
	for i := 0; i < n+r.Intn(n); i++ {
		v := &cluster.VM{ID: fmt.Sprintf("vm%04d", i), Demand: 0.2 + 2.8*r.Float64(), MemoryGB: 0.25 + 1.75*r.Float64()}
		if err := dc.Place(v, servers[r.Intn(hosts)]); err != nil {
			t.Fatal(err)
		}
	}
	dc.SleepIdle()
	return dc
}

// mutate applies one seeded between-pass change to both worlds: new
// demands for every VM, DVFS on the active servers, and now and then a
// cordon change or a crash whose orphans are re-placed.
func mutate(t *testing.T, r *rand.Rand, worlds [2]*diffWorld) {
	t.Helper()
	vms := worlds[0].dc.VMs()
	demand := make([]float64, len(vms))
	scale := 0.3 + 0.7*r.Float64() // some passes see no overload
	for i := range demand {
		demand[i] = scale * (0.1 + 3.4*r.Float64())
	}
	n := len(worlds[0].dc.Servers)
	cordon, crash := -1, -1
	if r.Intn(3) == 0 {
		cordon = r.Intn(n)
	}
	if r.Intn(4) == 0 {
		crash = r.Intn(n)
	}
	for _, w := range worlds {
		for i, v := range w.dc.VMs() {
			v.Demand = demand[i]
		}
		if cordon >= 0 {
			s := w.dc.Servers[cordon]
			if s.Cordoned() {
				s.Uncordon()
			} else {
				s.Cordon()
			}
		}
		if crash >= 0 {
			orphans := w.dc.Crash(w.dc.Servers[crash])
			for k, v := range orphans {
				for j := 0; j < n; j++ {
					s := w.dc.Servers[(crash+1+k+j)%n]
					if s.State() != cluster.Failed && !s.Cordoned() {
						if err := w.dc.Place(v, s); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
			}
		}
		for _, s := range w.dc.Servers {
			if s.State() == cluster.Active {
				s.ApplyDVFS()
			}
		}
	}
}

// diffMoves renders a report's moves as (VM, from, to) ID triples.
func diffMoves(rep Report) []string {
	out := make([]string, len(rep.Moves))
	for i, m := range rep.Moves {
		out[i] = m.VM.ID + ":" + m.From.ID + ">" + m.To.ID
	}
	return out
}

// compareReports reports the first difference between two pass reports.
func compareReports(what string, got, want Report, gotErr, wantErr error) error {
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Errorf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	g, w := got, want
	g.Moves, w.Moves, g.FaultLog, w.FaultLog = nil, nil, nil, nil
	if fmt.Sprintf("%+v", g) != fmt.Sprintf("%+v", w) {
		return fmt.Errorf("%s: report %+v, reference %+v", what, g, w)
	}
	if !slices.Equal(diffMoves(got), diffMoves(want)) {
		return fmt.Errorf("%s: moves %v, reference %v", what, diffMoves(got), diffMoves(want))
	}
	if !slices.Equal(got.FaultLog, want.FaultLog) {
		return fmt.Errorf("%s: fault log %v, reference %v", what, got.FaultLog, want.FaultLog)
	}
	return nil
}

// compareFleets reports the first server whose state, frequency or VM
// order differs.
func compareFleets(what string, got, want *cluster.DataCenter) error {
	for i, s := range got.Servers {
		ref := want.Servers[i]
		//lint:ignore floatcompare frequencies come verbatim from the P-state table
		if s.State() != ref.State() || s.Freq() != ref.Freq() || s.Cordoned() != ref.Cordoned() {
			return fmt.Errorf("%s: server %s is %v at %v GHz, reference %v at %v GHz",
				what, s.ID, s.State(), s.Freq(), ref.State(), ref.Freq())
		}
		if !slices.Equal(vmIDs(s), vmIDs(ref)) {
			return fmt.Errorf("%s: server %s hosts %v, reference %v", what, s.ID, vmIDs(s), vmIDs(ref))
		}
	}
	return got.CheckInvariants()
}

// compareSearches reports the first Minimum Slack search whose span
// differs between two traced passes, attribute by attribute and a float
// by its bits. Every search must see bins whose sums match a fresh load
// bit for bit, so every slack it reports must match too: a bin reused
// with its sums added in another order can still reach every decision
// the fresh one reaches.
func compareSearches(what string, got, want *telemetry.Tracer) error {
	if got.Dropped() > 0 || want.Dropped() > 0 {
		return fmt.Errorf("%s: the trace rings dropped %d and %d records", what, got.Dropped(), want.Dropped())
	}
	g, w := searchSpans(got), searchSpans(want)
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Errorf("%s: search %d recorded %s, reference %s", what, i, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		return fmt.Errorf("%s: %d searches recorded, reference %d", what, len(g), len(w))
	}
	return nil
}

// searchSpans renders the attributes of every packing.minslack span.
func searchSpans(tr *telemetry.Tracer) []string {
	var out []string
	for _, rec := range tr.Snapshot() {
		if rec.Name == "packing.minslack" {
			out = append(out, fmt.Sprint(rec.Attrs))
		}
	}
	return out
}

func vmIDs(s *cluster.Server) []string {
	var out []string
	for _, v := range s.VMs() {
		out = append(out, v.ID)
	}
	return out
}

// diffTally counts what the seeded histories exercised, so the test can
// show its coverage holds.
type diffTally struct {
	passes, overloaded, migrations, vetoed, unresolved, failed, passErrors, aborts, cordonedDonors, widened int
	// multiDrain counts the passes whose drain rounds emptied two or
	// more donors: from the second such round on, IPAC plans onto the
	// views it still holds.
	multiDrain int
}

// runDifferential drives one seeded history through both passes and
// returns the first disagreement.
func runDifferential(t *testing.T, seed int64, tally *diffTally) error {
	r := rand.New(rand.NewSource(seed))
	n := 20 + r.Intn(381)
	var policy CostPolicy = AllowAll{}
	if r.Intn(2) == 0 {
		policy = hashVeto{}
	}
	profile := fault.Profile{Seed: seed,
		Migration: fault.MigrationProfile{AbortProb: 0.3 * r.Float64(), MaxRetries: r.Intn(3)},
		Optimizer: fault.OptimizerProfile{ErrorProb: 0.2 * r.Float64()}}
	faulty := r.Intn(3) != 0
	passes := 3 + r.Intn(4)

	ipac := NewIPAC()
	ipac.Policy = policy
	refCfg := packing.DefaultMinSlackConfig()
	refCfg.Stats, refCfg.Pool = &packing.SearchStats{}, packing.NewPool()
	ref := &refIPAC{Constraint: ipac.Constraint, MinSlack: refCfg, Policy: policy}
	worlds := [2]*diffWorld{
		{dc: buildDiffDC(t, seed, n), cons: ipac, stats: ipac.MinSlack.Stats},
		{dc: buildDiffDC(t, seed, n), cons: ref, stats: refCfg.Stats},
	}
	if faulty {
		for _, w := range worlds {
			w.inj = fault.New(profile)
		}
		ipac.SetFaults(worlds[0].inj)
		ref.Faults = worlds[1].inj
	}
	if crash := r.Intn(n); r.Intn(2) == 0 {
		for _, w := range worlds {
			w.dc.Crash(w.dc.Servers[crash]) // its VMs are lost
		}
	}
	if host := r.Intn(n/3 + 1); r.Intn(2) == 0 {
		for _, w := range worlds {
			w.dc.Servers[host].Cordon()
		}
	}
	for pass := 0; pass < passes; pass++ {
		what := fmt.Sprintf("seed %d (%d servers, %s, faults %v) pass %d", seed, n, policy.Name(), faulty, pass)
		if pass > 0 {
			mutate(t, r, worlds)
		}
		var reps [2]Report
		var errs [2]error
		var stats [2]packing.SearchStats
		overloaded := 0
		for _, s := range worlds[0].dc.Servers {
			if s.State() == cluster.Active && s.Overloaded() {
				overloaded++
			}
		}
		cordonedDonor := false
		for _, s := range worlds[0].dc.Servers {
			cordonedDonor = cordonedDonor || (s.Cordoned() && s.State() == cluster.Active && s.NumVMs() > 0)
		}
		// Each side records its searches afresh, so the pass's Minimum
		// Slack calls can be compared one by one.
		tracers := [2]*telemetry.Tracer{telemetry.New(nil, 1<<18), telemetry.New(nil, 1<<18)}
		ipac.SetTrace(tracers[0].Track("pass"))
		ref.MinSlack.Trace = tracers[1].Track("pass")
		for i, w := range worlds {
			w.inj.SetStep(pass)
			before := *w.stats
			reps[i], errs[i] = w.cons.Consolidate(w.dc)
			stats[i] = packing.SearchStats{
				Calls: w.stats.Calls - before.Calls, Nodes: w.stats.Nodes - before.Nodes,
				Widenings: w.stats.Widenings - before.Widenings, Exhausted: w.stats.Exhausted - before.Exhausted}
		}
		if err := compareReports(what, reps[0], reps[1], errs[0], errs[1]); err != nil {
			return err
		}
		if err := compareFleets(what, worlds[0].dc, worlds[1].dc); err != nil {
			return err
		}
		if stats[0] != stats[1] {
			return fmt.Errorf("%s: search effort %+v, reference %+v", what, stats[0], stats[1])
		}
		if err := compareSearches(what, tracers[0], tracers[1]); err != nil {
			return err
		}
		tally.passes++
		tally.overloaded += min(overloaded, 1)
		tally.migrations += reps[0].Migrations
		tally.vetoed += reps[0].Vetoed
		tally.unresolved += reps[0].Unresolved
		tally.failed += reps[0].FailedMoves
		tally.widened += stats[0].Widenings
		if cordonedDonor {
			tally.cordonedDonors++
		}
		if ref.emptied >= 2 {
			tally.multiDrain++
		}
		for _, rec := range reps[0].FaultLog {
			switch rec.Kind {
			case fault.OptimizerError:
				tally.passErrors++
			case fault.MigrationAbort:
				tally.aborts++
			}
		}
	}
	return nil
}

// TestIPACMatchesReference drives 50 seeded histories through IPAC and
// the per-round rebuild side by side.
func TestIPACMatchesReference(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	var tally diffTally
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			if err := runDifferential(t, seed, &tally); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("exercised: %+v", tally)
	for name, n := range map[string]int{"overloaded passes": tally.overloaded, "migrations": tally.migrations,
		"vetoes": tally.vetoed, "failed moves": tally.failed, "pass errors": tally.passErrors,
		"migration aborts": tally.aborts, "passes with a cordoned donor": tally.cordonedDonors, "widenings": tally.widened,
		"passes that emptied two or more donors": tally.multiDrain} {
		if n == 0 {
			t.Errorf("the histories never exercised %s", name)
		}
	}
}

// FuzzIPACMatchesReference drives the seeded history of any seed
// through IPAC and the per-round rebuild side by side. The committed
// corpus holds histories whose drains reuse views: under allow-all, with
// the fault plane, and under a vetoing policy with the fault plane.
func FuzzIPACMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		var tally diffTally
		if err := runDifferential(t, seed, &tally); err != nil {
			t.Fatal(err)
		}
	})
}

// fleetSizeDC builds the allocation gates' data center: 40 active
// servers with the same VMs, one of them overloaded by a VM of the
// given share of its host's capacity, then sleeping servers up to the
// fleet size. The sleeping servers' IDs sort after the active ones, so
// relief wakes the same server on every fleet size. At share 1 the VM
// fits no server under the 10% headroom, so relief searches every one;
// at 0.85 it fits the first empty high-end server PAC reaches.
func fleetSizeDC(t *testing.T, fleet int, share float64) *cluster.DataCenter {
	t.Helper()
	types := power.AllTypes()
	servers := make([]*cluster.Server, fleet)
	for i := range servers {
		servers[i] = cluster.NewServer(fmt.Sprintf("s%04d", i), types[i%len(types)])
	}
	dc, err := cluster.NewDataCenter(servers)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 160; i++ {
		host := servers[i%40]
		demand := 0.3 + 1.2*r.Float64()
		if i%40 == 0 {
			demand = share * host.Spec.Capacity() // overloads its host
		}
		v := &cluster.VM{ID: fmt.Sprintf("vm%03d", i), Demand: demand, MemoryGB: 0.5}
		if err := dc.Place(v, host); err != nil {
			t.Fatal(err)
		}
	}
	dc.SleepIdle()
	return dc
}

// passMallocs measures one IPAC pass over dc: the heap objects
// allocated by the pass alone. Like testing.AllocsPerRun it measures at
// GOMAXPROCS 1: with a second P, the runtime's own allocations now and
// then land in the window, a few objects at a time.
func passMallocs(t *testing.T, ipac *IPAC, dc *cluster.DataCenter) (uint64, Report) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := ipac.Consolidate(dc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, rep
}

// warmPassMallocs measures one warmed IPAC pass with an overload on a
// fleet of the given size.
func warmPassMallocs(t *testing.T, fleet int) (uint64, Report) {
	ipac := NewIPAC()
	for i := 0; i < 2; i++ { // warm the pool on identical passes
		if _, err := ipac.Consolidate(fleetSizeDC(t, fleet, 1)); err != nil {
			t.Fatal(err)
		}
	}
	return passMallocs(t, ipac, fleetSizeDC(t, fleet, 1))
}

// TestPassAllocsIndependentOfFleetSize: a warmed pass allocates for the
// VMs it moves and the servers it works on, not for the sleeping rest of
// the fleet. Per-pass maps or bins over every server would grow with it.
func TestPassAllocsIndependentOfFleetSize(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates shadow state")
	}
	small, smallRep := warmPassMallocs(t, 300)
	large, largeRep := warmPassMallocs(t, 3000)
	if smallRep.Migrations == 0 || smallRep.Migrations != largeRep.Migrations {
		t.Fatalf("the passes differ: %s vs %s", smallRep, largeRep)
	}
	if small != large {
		t.Fatalf("a warmed pass allocates %d objects on 300 servers but %d on 3000 (%s)", small, large, largeRep)
	}
}

// TestColdPassAllocsIndependentOfFleetSize: the first pass of a new IPAC
// (vdcperf builds one per run) allocates the same on 300 and 3 000
// servers when relief resolves its overload: relief views only the
// servers PAC reaches, not every one it may wake.
func TestColdPassAllocsIndependentOfFleetSize(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates shadow state")
	}
	small, smallRep := passMallocs(t, NewIPAC(), fleetSizeDC(t, 300, 0.85))
	large, largeRep := passMallocs(t, NewIPAC(), fleetSizeDC(t, 3000, 0.85))
	if smallRep.Migrations == 0 || smallRep.Unresolved != 0 || smallRep.String() != largeRep.String() {
		t.Fatalf("the passes differ or leave the overload: %s vs %s", smallRep, largeRep)
	}
	if small != large {
		t.Fatalf("a cold pass allocates %d objects on 300 servers but %d on 3000 (%s)", small, large, largeRep)
	}
}
