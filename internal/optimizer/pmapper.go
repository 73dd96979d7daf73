package optimizer

import (
	"fmt"
	"sort"

	"vdcpower/internal/cluster"
	"vdcpower/internal/fault"
	"vdcpower/internal/packing"
	"vdcpower/internal/telemetry"
)

// PMapper is the baseline of Section VII (Verma et al., Middleware'08) as
// the paper describes it: an incremental two-phase algorithm. Phase 1
// sorts servers by power efficiency and first-fits every VM onto them to
// compute a *virtual* target allocation (no migrations yet). Phase 2
// labels servers whose target demand exceeds their current demand as
// receivers; every donor sheds its smallest VMs into a migration list
// until it reaches its target, and the list is first-fit-decreasing
// packed onto the receivers.
//
// Per the paper's comparison, pMapper does not integrate DVFS: its
// servers run at maximum frequency between invocations.
type PMapper struct {
	Constraint packing.VectorConstraint
	Policy     CostPolicy

	trace  *telemetry.Track // set via SetTrace; nil keeps tracing off
	faults *fault.Injector  // set via SetFaults; nil keeps injection off
}

// SetTrace implements telemetry.Traceable.
func (p *PMapper) SetTrace(tk *telemetry.Track) { p.trace = tk }

// SetFaults implements fault.Injectable: a pass draws transient errors
// and its migrations draw aborts from in, as IPAC's do.
func (p *PMapper) SetFaults(in *fault.Injector) { p.faults = in }

// NewPMapper returns the baseline with the default constraint and the
// allow-all policy.
func NewPMapper() *PMapper {
	return &PMapper{Constraint: packing.VectorConstraint{}, Policy: AllowAll{}}
}

// UsesDVFS implements Consolidator: the baseline relies on consolidation
// alone.
func (p *PMapper) UsesDVFS() bool { return false }

// Name implements Consolidator.
func (p *PMapper) Name() string { return "pMapper" }

// Consolidate implements Consolidator.
func (p *PMapper) Consolidate(dc *cluster.DataCenter) (Report, error) {
	rep := Report{ActiveBefore: dc.NumActive()}
	root := p.trace.Start("pmapper.consolidate").Int("active_before", rep.ActiveBefore)
	defer func() {
		root.Int("migrations", rep.Migrations).Int("vetoed", rep.Vetoed).
			Int("active_after", rep.ActiveAfter).End()
	}()
	if err := passError(dc, p.faults, p.Name(), &rep); err != nil {
		return rep, err
	}

	// Phase 1: virtual target allocation over empty bins for every
	// server (first-fit in decreasing demand order, the strongest common
	// reading of "first-fit" — phase 2 is explicitly FFD).
	var bins []*packing.Bin
	for _, s := range dc.Servers {
		if s.Cordoned() || s.State() == cluster.Failed {
			continue // maintenance or crashed: not a valid target
		}
		bins = append(bins, &packing.Bin{
			ID:         s.ID,
			CPUCap:     s.Spec.Capacity(),
			MemCap:     s.Spec.MemoryGB,
			Efficiency: s.Spec.Efficiency(),
		})
	}
	packing.SortBinsByEfficiency(bins)
	allVMs := dc.VMs()
	items := make([]packing.Item, len(allVMs))
	for i, v := range allVMs {
		items[i] = itemFor(v)
	}
	targetAsg, unplaced := packing.FirstFitDecreasing(items, bins, p.Constraint)
	rep.Unresolved += len(unplaced)

	// Target demand per server under the virtual allocation.
	target := map[string]float64{}
	for _, it := range items {
		if binID, ok := targetAsg[it.ID]; ok {
			target[binID] += it.CPU
		}
	}

	// Phase 2: donors shed smallest VMs down to their target; receivers
	// absorb the migration list via FFD.
	const eps = 1e-9
	var donors, receivers []*cluster.Server
	for _, s := range dc.Servers {
		cur := s.TotalDemand()
		switch {
		case s.Cordoned():
			if s.NumVMs() > 0 {
				donors = append(donors, s) // drain, never receive
			}
		case target[s.ID] > cur+eps:
			receivers = append(receivers, s)
		case target[s.ID] < cur-eps && s.NumVMs() > 0:
			donors = append(donors, s)
		}
	}
	sort.Slice(donors, func(i, j int) bool { return donors[i].ID < donors[j].ID })

	type pending struct {
		vm   *cluster.VM
		from *cluster.Server
	}
	var migList []pending
	for _, d := range donors {
		vms := append([]*cluster.VM(nil), d.VMs()...)
		sort.Slice(vms, func(i, j int) bool {
			//lint:ignore floatcompare exact tie-break for a deterministic sort order
			if vms[i].Demand != vms[j].Demand {
				return vms[i].Demand < vms[j].Demand // smallest first
			}
			return vms[i].ID < vms[j].ID
		})
		cur := d.TotalDemand()
		for _, v := range vms {
			if cur <= target[d.ID]+eps {
				break
			}
			migList = append(migList, pending{vm: v, from: d})
			cur -= v.Demand
		}
	}
	if len(migList) == 0 {
		dc.SleepIdle()
		rep.ActiveAfter = dc.NumActive()
		return rep, nil
	}

	// Receivers as bins with their current load, most efficient first.
	var recvBins []*packing.Bin
	for _, r := range receivers {
		recvBins = append(recvBins, loadBin(&packing.Bin{}, r, nil))
	}
	packing.SortBinsByEfficiency(recvBins)
	migItems := make([]packing.Item, len(migList))
	for i, pd := range migList {
		migItems[i] = itemFor(pd.vm)
	}
	asg, notPlaced := packing.FirstFitDecreasing(migItems, recvBins, p.Constraint)
	rep.Unresolved += len(notPlaced)

	for _, pd := range migList {
		binID, ok := asg[pd.vm.ID]
		if !ok {
			continue
		}
		to := dc.Server(binID)
		if to == pd.from {
			continue
		}
		if !p.Policy.Allow(pd.vm, pd.from, to, EstimateBenefit(pd.vm, pd.from, to)) {
			rep.Vetoed++
			p.trace.Event("optimizer.veto").Str("vm", pd.vm.ID).
				Str("from", pd.from.ID).Str("to", to.ID).End()
			continue
		}
		if _, err := migrateWithRetry(dc, pd.vm, to, p.faults, &rep, p.trace); err != nil {
			return rep, fmt.Errorf("optimizer: pMapper migration failed: %w", err)
		}
	}
	dc.SleepIdle()
	rep.ActiveAfter = dc.NumActive()
	rep.Rounds = 1
	return rep, nil
}

// NoOp is a consolidator that never migrates — the static-placement
// baseline for ablations.
type NoOp struct {
	// DVFS controls whether servers under this policy still throttle.
	DVFS bool
}

// Consolidate implements Consolidator.
func (n NoOp) Consolidate(dc *cluster.DataCenter) (Report, error) {
	a := dc.NumActive()
	return Report{ActiveBefore: a, ActiveAfter: a}, nil
}

// UsesDVFS implements Consolidator.
func (n NoOp) UsesDVFS() bool { return n.DVFS }

// Name implements Consolidator.
func (n NoOp) Name() string {
	if n.DVFS {
		return "static+DVFS"
	}
	return "static"
}
