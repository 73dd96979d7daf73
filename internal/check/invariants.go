package check

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"vdcpower/internal/cluster"
	"vdcpower/internal/packing"
)

// eps absorbs float accumulation error in capacity comparisons, matching
// the tolerances the cluster and packing packages use internally.
const eps = 1e-6

// CountOverloaded returns the number of active servers whose demand
// exceeds capacity at maximum frequency. The pass driver (probe.Pass)
// computes it before each pass so Event.OverloadedBefore can scope the
// IPAC active-server monotonicity law.
func CountOverloaded(dc *cluster.DataCenter) int {
	n := 0
	for _, s := range dc.Servers {
		if s.State() == cluster.Active && s.Overloaded() {
			n++
		}
	}
	return n
}

// ClusterInvariants returns the conservation laws of the cluster
// substrate.
func ClusterInvariants() []Invariant {
	return []Invariant{
		&vmConservation{},
		pstateValid{},
		dvfsCoversDemand{},
		memoryCapacity{},
		indexConsistent{},
	}
}

// OptimizerInvariants returns the laws every consolidator pass must obey.
// VetoesRespected needs a PolicyAuditor and is registered separately.
func OptimizerInvariants() []Invariant {
	return []Invariant{ipacActiveMonotone{}, reportConsistent{}}
}

// PowerInvariants returns the energy-accounting laws.
func PowerInvariants() []Invariant {
	return []Invariant{&energyMonotone{}, powerBounded{}}
}

// PackingInvariants returns the laws vetting observed MinimumSlack calls.
func PackingInvariants() []Invariant {
	return []Invariant{minSlackFeasible{}, minSlackVsFFD{}}
}

// FaultInvariants returns the degradation laws introduced with the fault
// plane: two-phase migrations never double-place, and stale measurements
// never keep closing the loop past the hold window.
func FaultInvariants() []Invariant {
	return []Invariant{noDoublePlacement{}, holdWindowBounded{}}
}

// All returns the full registry: cluster, optimizer, power, packing,
// fault-degradation, and bounded-execution invariants. Add
// VetoesRespected(auditor) when a cost policy is wrapped.
func All() []Invariant {
	var out []Invariant
	out = append(out, ClusterInvariants()...)
	out = append(out, OptimizerInvariants()...)
	out = append(out, PowerInvariants()...)
	out = append(out, PackingInvariants()...)
	out = append(out, FaultInvariants()...)
	out = append(out, GuardInvariants()...)
	return out
}

// vmConservation checks that the VM population never changes: live
// migration, sleep and wake move VMs around but must not create, lose or
// duplicate one. The first event with a data center sets the baseline.
type vmConservation struct {
	baseline map[string]bool
}

func (i *vmConservation) Name() string { return "cluster/vm-conservation" }

func (i *vmConservation) Check(ev Event) error {
	// A crash under the "lose" policy legitimately shrinks the population:
	// the harness reports the lost IDs and the baseline follows, so only
	// unexplained losses violate the law.
	if len(ev.LostVMs) > 0 && i.baseline != nil {
		for _, id := range ev.LostVMs {
			if !i.baseline[id] {
				return fmt.Errorf("crash reports VM %s lost, but it was not in the baseline", id)
			}
			delete(i.baseline, id)
		}
	}
	if ev.DC == nil {
		return nil
	}
	current := map[string]bool{}
	for _, v := range ev.DC.VMs() {
		if current[v.ID] {
			return fmt.Errorf("VM %s hosted twice", v.ID)
		}
		current[v.ID] = true
	}
	if i.baseline == nil {
		i.baseline = current
		return nil
	}
	if len(current) != len(i.baseline) {
		return fmt.Errorf("VM population changed: %d VMs, baseline %d (%s)",
			len(current), len(i.baseline), diffIDs(i.baseline, current))
	}
	for id := range i.baseline {
		if !current[id] {
			return fmt.Errorf("VM %s lost since baseline", id)
		}
	}
	return nil
}

// diffIDs summarizes a set difference for diagnostics.
func diffIDs(baseline, current map[string]bool) string {
	var lost, gained []string
	for id := range baseline {
		if !current[id] {
			lost = append(lost, id)
		}
	}
	for id := range current {
		if !baseline[id] {
			gained = append(gained, id)
		}
	}
	sort.Strings(lost)
	sort.Strings(gained)
	const show = 3
	if len(lost) > show {
		lost = append(lost[:show], "...")
	}
	if len(gained) > show {
		gained = append(gained[:show], "...")
	}
	return fmt.Sprintf("lost [%s] gained [%s]", strings.Join(lost, " "), strings.Join(gained, " "))
}

// pstateValid checks that every server's current frequency is one of its
// spec's P-states — DVFS can only select table entries.
type pstateValid struct{}

func (pstateValid) Name() string { return "cluster/pstate-valid" }

func (pstateValid) Check(ev Event) error {
	if ev.DC == nil {
		return nil
	}
	for _, s := range ev.DC.Servers {
		found := false
		for _, ps := range s.Spec.PStates {
			//lint:ignore floatcompare frequencies come verbatim from the P-state table, never computed
			if ps == s.Freq() {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("server %s runs at %v GHz, not in P-states %v", s.ID, s.Freq(), s.Spec.PStates)
		}
	}
	return nil
}

// dvfsCoversDemand checks the arbitrator's frequency decision: whenever a
// server's aggregate demand fits its capacity at maximum frequency, the
// chosen P-state must grant at least that demand — DVFS saves power by
// shaving slack, never by starving hosted VMs. The law holds only after
// arbitration ran for the current demands, so it is scoped to step and
// init events; mid-step states (a consolidate pass sees frequencies from
// the previous step) are transitional.
type dvfsCoversDemand struct{}

func (dvfsCoversDemand) Name() string { return "cluster/dvfs-covers-demand" }

func (dvfsCoversDemand) Check(ev Event) error {
	if ev.DC == nil || (ev.Kind != EvStep && ev.Kind != EvInit) {
		return nil
	}
	for _, s := range ev.DC.Active() {
		d := s.TotalDemand()
		if d > s.Spec.Capacity()+eps {
			continue // overloaded: no P-state can cover it
		}
		if got := s.Spec.CapacityAt(s.Freq()); got+eps < d {
			return fmt.Errorf("server %s grants %.4f GHz at %v GHz but demand is %.4f GHz (capacity %.4f)",
				s.ID, got, s.Freq(), d, s.Spec.Capacity())
		}
	}
	return nil
}

// memoryCapacity checks the administrator constraint of Section V: VM
// memory is never oversubscribed on any server.
type memoryCapacity struct{}

func (memoryCapacity) Name() string { return "cluster/memory-capacity" }

func (memoryCapacity) Check(ev Event) error {
	if ev.DC == nil {
		return nil
	}
	for _, s := range ev.DC.Servers {
		if m := s.TotalMemory(); m > s.Spec.MemoryGB+eps {
			return fmt.Errorf("server %s hosts %.2f GB of VM memory, capacity %.2f GB", s.ID, m, s.Spec.MemoryGB)
		}
	}
	return nil
}

// indexConsistent re-checks the data center's own structural invariants:
// the VM index matches hosting, and no sleeping server hosts VMs.
type indexConsistent struct{}

func (indexConsistent) Name() string { return "cluster/index-consistent" }

func (indexConsistent) Check(ev Event) error {
	if ev.DC == nil {
		return nil
	}
	return ev.DC.CheckInvariants()
}

// ipacActiveMonotone checks the paper's IPAC progress guarantee: when no
// server was overloaded at invocation time, consolidation only ever
// drains and sleeps servers, so the active count cannot grow. Overload
// relief may legitimately wake servers, hence the OverloadedBefore scope;
// pMapper gives no such guarantee, hence the policy scope.
type ipacActiveMonotone struct{}

func (ipacActiveMonotone) Name() string { return "optimizer/ipac-active-monotone" }

func (ipacActiveMonotone) Check(ev Event) error {
	if ev.Kind != EvConsolidate || ev.Report == nil {
		return nil
	}
	if !strings.HasPrefix(ev.Policy, "IPAC") || ev.OverloadedBefore > 0 {
		return nil
	}
	if ev.Report.ActiveAfter > ev.Report.ActiveBefore {
		return fmt.Errorf("active servers grew %d → %d with no overload to relieve",
			ev.Report.ActiveBefore, ev.Report.ActiveAfter)
	}
	return nil
}

// reportConsistent checks that an optimizer report is an honest account:
// counters are non-negative, every counted migration has a recorded move,
// and the claimed active-server count matches the data center.
type reportConsistent struct{}

func (reportConsistent) Name() string { return "optimizer/report-consistent" }

func (reportConsistent) Check(ev Event) error {
	if (ev.Kind != EvConsolidate && ev.Kind != EvWatchdog) || ev.Report == nil {
		return nil
	}
	r := ev.Report
	if r.Migrations < 0 || r.Vetoed < 0 || r.Rounds < 0 || r.Unresolved < 0 || r.FailedMoves < 0 {
		return fmt.Errorf("negative counter in report: %s", r)
	}
	if r.Migrations != len(r.Moves) {
		return fmt.Errorf("report counts %d migrations but records %d moves", r.Migrations, len(r.Moves))
	}
	if ev.DC != nil && r.ActiveAfter != ev.DC.NumActive() {
		return fmt.Errorf("report claims %d active servers, data center has %d", r.ActiveAfter, ev.DC.NumActive())
	}
	return nil
}

// energyMonotone checks the meter laws: cumulative energy is finite,
// non-negative, and never decreases.
type energyMonotone struct {
	seen  bool
	lastJ float64
}

func (i *energyMonotone) Name() string { return "power/energy-monotone" }

func (i *energyMonotone) Check(ev Event) error {
	if !ev.HasEnergy {
		return nil
	}
	j := ev.EnergyJ
	if math.IsNaN(j) || math.IsInf(j, 0) {
		return fmt.Errorf("energy reading %v is not finite", j)
	}
	if j < 0 {
		return fmt.Errorf("negative cumulative energy %v J", j)
	}
	if i.seen && j < i.lastJ-eps {
		return fmt.Errorf("energy decreased %.6g J → %.6g J", i.lastJ, j)
	}
	i.seen = true
	i.lastJ = j
	return nil
}

// powerBounded checks instantaneous power: non-negative, finite, and
// within the fleet's physical ceiling (every server at max power plus
// every sleep state).
type powerBounded struct{}

func (powerBounded) Name() string { return "power/power-bounded" }

func (powerBounded) Check(ev Event) error {
	if !ev.HasPower {
		return nil
	}
	p := ev.PowerW
	if math.IsNaN(p) || math.IsInf(p, 0) {
		return fmt.Errorf("power reading %v is not finite", p)
	}
	if p < 0 {
		return fmt.Errorf("negative power %v W", p)
	}
	if ev.DC == nil {
		return nil
	}
	ceil := 0.0
	for _, s := range ev.DC.Servers {
		ceil += s.Spec.MaxPower() + s.Spec.PSleep
	}
	if p > ceil+eps {
		return fmt.Errorf("power %.1f W exceeds fleet ceiling %.1f W", p, ceil)
	}
	return nil
}

// minSlackFeasible checks one observed Algorithm 1 invocation: the chosen
// set is a duplicate-free subset of the candidates, the constraint admits
// it on the bin, and the reported slack is exactly the bin's slack minus
// the chosen CPU.
type minSlackFeasible struct{}

func (minSlackFeasible) Name() string { return "packing/minslack-feasible" }

func (minSlackFeasible) Check(ev Event) error {
	if ev.Kind != EvPacking || ev.MinSlack == nil {
		return nil
	}
	obs := ev.MinSlack
	byID := map[string]packing.Item{}
	for _, it := range obs.Candidates {
		byID[it.ID] = it
	}
	seen := map[string]bool{}
	cpu := 0.0
	for _, it := range obs.Result.Chosen {
		if _, ok := byID[it.ID]; !ok {
			return fmt.Errorf("chosen item %q is not a candidate", it.ID)
		}
		if seen[it.ID] {
			return fmt.Errorf("item %q chosen twice", it.ID)
		}
		seen[it.ID] = true
		cpu += it.CPU
	}
	if len(obs.Result.Chosen) > 0 && !obs.Cons.Fits(obs.Bin, obs.Result.Chosen) {
		return fmt.Errorf("constraint cpu+mem rejects the chosen set on bin %s", obs.Bin.ID)
	}
	want := obs.Bin.Slack() - cpu
	if math.Abs(want-obs.Result.Slack) > eps {
		return fmt.Errorf("slack accounting off: reported %.6f, bin slack %.6f − chosen %.6f = %.6f",
			obs.Result.Slack, obs.Bin.Slack(), cpu, want)
	}
	if obs.Result.Slack < -eps {
		return fmt.Errorf("negative slack %.6f: chosen set overflows the bin", obs.Result.Slack)
	}
	return nil
}

// minSlackVsFFD checks the quality guarantee that makes Algorithm 1 worth
// its search: its first DFS path is exactly greedy decreasing first-fit,
// so with a node budget covering the candidates the result can never be
// worse than FFD on the same bin — except when the ε-optimal early exit
// fires first, which only happens at slack ≤ ε. Hence the bound is
// max(FFD slack, ε).
type minSlackVsFFD struct{}

func (minSlackVsFFD) Name() string { return "packing/minslack-vs-ffd" }

func (minSlackVsFFD) Check(ev Event) error {
	if ev.Kind != EvPacking || ev.MinSlack == nil {
		return nil
	}
	obs := ev.MinSlack
	budget := obs.Config.MaxNodes
	if budget <= 0 {
		budget = packing.DefaultMinSlackConfig().MaxNodes
	}
	if budget < len(obs.Candidates) {
		return nil // the guarantee needs the greedy path inside the budget
	}
	bound := SingleBinFFDSlack(obs.Bin, obs.Candidates, obs.Cons)
	if obs.Config.Epsilon > bound {
		bound = obs.Config.Epsilon
	}
	if obs.Result.Slack > bound+eps {
		return fmt.Errorf("slack %.6f worse than single-bin FFD bound %.6f", obs.Result.Slack, bound)
	}
	return nil
}

// SingleBinFFDSlack returns the slack left by greedy decreasing-order
// first-fit of the candidates onto the bin alone — the baseline Minimum
// Slack must never lose to. It packs a copy of the bin, with the same
// admission rule as Algorithm 1's first search path; b is not mutated.
func SingleBinFFDSlack(b *packing.Bin, candidates []packing.Item, cons packing.VectorConstraint) float64 {
	bin := &packing.Bin{ID: b.ID, CPUCap: b.CPUCap, MemCap: b.MemCap}
	for _, it := range b.Items() {
		bin.Add(it)
	}
	packing.FirstFitDecreasing(candidates, []*packing.Bin{bin}, cons)
	return bin.Slack()
}
