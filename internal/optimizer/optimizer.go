// Package optimizer implements the data-center-level power optimizer of
// Section V: the Power Aware Consolidation (PAC) algorithm built on
// Minimum Slack, its incremental driver IPAC, cost-aware migration
// policies, and the pMapper baseline of Verma et al. used in Section VII.
package optimizer

import (
	"fmt"

	"vdcpower/internal/cluster"
	"vdcpower/internal/fault"
	"vdcpower/internal/packing"
	"vdcpower/internal/telemetry"
)

// Consolidator is a data-center-level VM placement policy invoked on the
// optimizer's long time scale.
type Consolidator interface {
	// Consolidate re-maps VMs and adjusts server power states.
	Consolidate(dc *cluster.DataCenter) (Report, error)
	// UsesDVFS reports whether servers managed by this policy throttle
	// between invocations (IPAC integrates with the arbitrator's DVFS;
	// the pMapper baseline does not).
	UsesDVFS() bool
	// Name identifies the policy in experiment output.
	Name() string
}

// SearchEffort reads a consolidator's accumulated branch-and-bound node
// and widening counts through the optional SearchStats accessor (IPAC
// wires one; other policies report 0). Harnesses report deltas per pass.
func SearchEffort(c Consolidator) (nodes, widenings int) {
	if s, ok := c.(interface{ SearchStats() *packing.SearchStats }); ok {
		if st := s.SearchStats(); st != nil {
			return st.Nodes, st.Widenings
		}
	}
	return 0, 0
}

// Report summarizes one optimizer invocation.
type Report struct {
	Migrations   int // migrations performed
	Vetoed       int // migrations rejected by the cost policy
	Rounds       int // consolidation rounds executed
	Unresolved   int // overloaded VMs that could not be re-placed
	FailedMoves  int // planned migrations abandoned after exhausting retries
	ActiveBefore int
	ActiveAfter  int
	// Moves records every performed migration, in order, so callers can
	// charge migration costs (network traffic, application downtime).
	Moves []cluster.Migration
	// FaultLog records the injected faults (migration aborts, pass errors)
	// absorbed during this pass, so degraded runs stay auditable.
	FaultLog []fault.Record
}

// String renders the report on one line.
func (r Report) String() string {
	return fmt.Sprintf("migrations=%d vetoed=%d rounds=%d unresolved=%d failed=%d active %d→%d",
		r.Migrations, r.Vetoed, r.Rounds, r.Unresolved, r.FailedMoves, r.ActiveBefore, r.ActiveAfter)
}

// WithoutDVFS wraps a consolidator so its servers run at maximum
// frequency between invocations — the ablation isolating how much of
// IPAC's saving comes from consolidation versus DVFS integration.
type WithoutDVFS struct {
	Inner Consolidator
}

// Consolidate implements Consolidator.
func (w WithoutDVFS) Consolidate(dc *cluster.DataCenter) (Report, error) {
	return w.Inner.Consolidate(dc)
}

// UsesDVFS implements Consolidator.
func (w WithoutDVFS) UsesDVFS() bool { return false }

// Name implements Consolidator.
func (w WithoutDVFS) Name() string { return w.Inner.Name() + "-noDVFS" }

// SetTrace implements telemetry.Traceable by forwarding to the wrapped
// consolidator when it is itself traceable.
func (w WithoutDVFS) SetTrace(tk *telemetry.Track) {
	if t, ok := w.Inner.(telemetry.Traceable); ok {
		t.SetTrace(tk)
	}
}

// SetFaults implements fault.Injectable by forwarding to the wrapped
// consolidator when it is itself injectable, so the ablation absorbs
// the same faults as the policy it wraps.
func (w WithoutDVFS) SetFaults(in *fault.Injector) {
	if f, ok := w.Inner.(fault.Injectable); ok {
		f.SetFaults(in)
	}
}

// SearchStats forwards the wrapped consolidator's search counters (nil
// when it keeps none), so SearchEffort counts the ablation's search.
func (w WithoutDVFS) SearchStats() *packing.SearchStats {
	if s, ok := w.Inner.(interface{ SearchStats() *packing.SearchStats }); ok {
		return s.SearchStats()
	}
	return nil
}

// EstimateBenefit approximates the steady-state power saving (watts) of
// moving vm from one server to another: the per-GHz marginal power
// difference, plus the idle power reclaimed if the source empties and can
// sleep. Cost policies weigh this against their migration cost model.
func EstimateBenefit(vm *cluster.VM, from, to *cluster.Server) float64 {
	perGHzFrom := from.Spec.MaxPower() / from.Spec.Capacity()
	perGHzTo := to.Spec.MaxPower() / to.Spec.Capacity()
	benefit := vm.Demand * (perGHzFrom - perGHzTo)
	if from.NumVMs() == 1 { // vm is the last tenant: the server can sleep
		benefit += from.Spec.Power(from.Spec.PStates[0], 0) - from.Spec.PSleep
	}
	return benefit
}

// loadBin makes the zero bin b a view of server s carrying its current
// load minus the VMs in skip. It adds the VMs in s.VMs() order, so two
// views of the same server carry the same sums, bit for bit.
func loadBin(b *packing.Bin, s *cluster.Server, skip []shedding) *packing.Bin {
	b.ID, b.CPUCap, b.MemCap, b.Efficiency = s.ID, s.Spec.Capacity(), s.Spec.MemoryGB, s.Spec.Efficiency()
	for _, v := range s.VMs() {
		if !isShed(skip, v) {
			b.Add(itemFor(v))
		}
	}
	return b
}

// isShed reports whether v is in the shed list.
func isShed(shed []shedding, v *cluster.VM) bool {
	for _, sh := range shed {
		if sh.vm == v {
			return true
		}
	}
	return false
}

// itemFor views a VM as a packing item.
func itemFor(v *cluster.VM) packing.Item {
	return packing.Item{ID: v.ID, CPU: v.Demand, Mem: v.MemoryGB}
}
