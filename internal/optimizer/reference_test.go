package optimizer

// The consolidation pass as it stood before the planning state was
// reused, kept test-only as the oracle for the differential driver in
// differential_test.go: per-round server maps, one freshly allocated bin
// per server per round (refBinFor), a donor sort per round, and PAC with
// its per-bin chosen map. It calls the current packing.MinimumSlack,
// whose own reference lives in the packing package.

import (
	"fmt"
	"sort"

	"vdcpower/internal/cluster"
	"vdcpower/internal/fault"
	"vdcpower/internal/packing"
)

// refPAC is PAC with an assignment map and a per-bin chosen map.
func refPAC(items []packing.Item, bins []*packing.Bin, cons packing.VectorConstraint, cfg packing.MinSlackConfig) (packing.Assignment, []packing.Item) {
	packing.SortBinsByEfficiency(bins)
	asg := packing.Assignment{}
	remaining := append([]packing.Item(nil), items...)
	for _, b := range bins {
		if len(remaining) == 0 {
			break
		}
		res := packing.MinimumSlack(b, remaining, cons, cfg)
		if len(res.Chosen) == 0 {
			continue
		}
		chosen := map[string]bool{}
		for _, it := range res.Chosen {
			b.Add(it)
			asg[it.ID] = b.ID
			chosen[it.ID] = true
		}
		kept := remaining[:0]
		for _, it := range remaining {
			if !chosen[it.ID] {
				kept = append(kept, it)
			}
		}
		remaining = kept
	}
	return asg, remaining
}

// refIPAC is IPAC's pass as a per-round rebuild.
type refIPAC struct {
	Constraint packing.VectorConstraint
	MinSlack   packing.MinSlackConfig
	Policy     CostPolicy
	Faults     *fault.Injector
	emptied    int // donors the last pass's drain rounds emptied
}

// Name matches IPAC's, so both draw the same injected pass errors.
func (o *refIPAC) Name() string   { return "IPAC" }
func (o *refIPAC) UsesDVFS() bool { return true }

func (o *refIPAC) Consolidate(dc *cluster.DataCenter) (Report, error) {
	rep := Report{ActiveBefore: dc.NumActive()}
	if err := o.Faults.OptimizerError(o.Name()); err != nil {
		rep.FaultLog = append(rep.FaultLog, fault.Record{
			Kind: fault.OptimizerError, Step: o.Faults.Step(), Target: o.Name()})
		rep.ActiveAfter = dc.NumActive()
		return rep, err
	}
	if err := refResolveOverloads(dc, o.Constraint, o.MinSlack, o.Faults, &rep); err != nil {
		return rep, err
	}
	tried := map[string]bool{}
	o.emptied = 0
	for {
		donor := o.pickDonor(dc, tried)
		if donor == nil {
			break
		}
		tried[donor.ID] = true
		rep.Rounds++
		if !o.drain(dc, donor, &rep) {
			break
		}
		o.emptied++
	}
	dc.SleepIdle()
	rep.ActiveAfter = dc.NumActive()
	return rep, nil
}

func (o *refIPAC) pickDonor(dc *cluster.DataCenter, tried map[string]bool) *cluster.Server {
	var cand []*cluster.Server
	for _, s := range dc.Active() {
		if s.NumVMs() > 0 && !tried[s.ID] {
			cand = append(cand, s)
		}
	}
	if len(cand) == 0 {
		return nil
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].Cordoned() != cand[j].Cordoned() {
			return cand[i].Cordoned()
		}
		ei, ej := cand[i].Spec.Efficiency(), cand[j].Spec.Efficiency()
		//lint:ignore floatcompare exact tie-break for a deterministic sort order
		if ei != ej {
			return ei < ej
		}
		return cand[i].ID < cand[j].ID
	})
	return cand[0]
}

func (o *refIPAC) drain(dc *cluster.DataCenter, donor *cluster.Server, rep *Report) bool {
	vms := donor.VMs()
	items := make([]packing.Item, 0, len(vms))
	vmByID := make(map[string]*cluster.VM, len(vms))
	for _, v := range vms {
		items = append(items, itemFor(v))
		vmByID[v.ID] = v
	}
	sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
	active := dc.Active()
	bins := make([]*packing.Bin, 0, len(active))
	for _, s := range active {
		if s != donor && !s.Cordoned() {
			bins = append(bins, refBinFor(s))
		}
	}
	asg, unplaced := refPAC(items, bins, o.Constraint, o.MinSlack)
	if len(unplaced) > 0 {
		return false
	}
	serverByID := map[string]*cluster.Server{}
	for _, s := range dc.Servers {
		serverByID[s.ID] = s
	}
	emptied := true
	for _, it := range items {
		vm := vmByID[it.ID]
		target := serverByID[asg[it.ID]]
		if !o.Policy.Allow(vm, donor, target, EstimateBenefit(vm, donor, target)) {
			rep.Vetoed++
			emptied = false
			continue
		}
		moved, err := migrateWithRetry(dc, vm, target, o.Faults, rep, nil)
		if err != nil {
			panic(fmt.Sprintf("reference: planned migration failed: %v", err))
		}
		if !moved {
			emptied = false
		}
	}
	if emptied {
		donor.Sleep()
	}
	return emptied
}

func refResolveOverloads(dc *cluster.DataCenter, cons packing.VectorConstraint, msCfg packing.MinSlackConfig, inj *fault.Injector, rep *Report) error {
	type shedding struct {
		vm   *cluster.VM
		from *cluster.Server
	}
	var shed []shedding
	shedIDs := map[string]bool{}
	for _, s := range dc.Active() {
		if !s.Overloaded() {
			continue
		}
		vms := append([]*cluster.VM(nil), s.VMs()...)
		sort.Slice(vms, func(i, j int) bool {
			//lint:ignore floatcompare exact tie-break for a deterministic sort order
			if vms[i].Demand != vms[j].Demand {
				return vms[i].Demand > vms[j].Demand
			}
			return vms[i].ID < vms[j].ID
		})
		excess := s.TotalDemand() - s.Spec.Capacity()
		for _, v := range vms {
			if excess <= 0 {
				break
			}
			shed = append(shed, shedding{vm: v, from: s})
			shedIDs[v.ID] = true
			excess -= v.Demand
		}
	}
	if len(shed) == 0 {
		return nil
	}
	var bins []*packing.Bin
	for _, s := range dc.Servers {
		if s.Cordoned() || s.State() == cluster.Failed {
			continue
		}
		b := &packing.Bin{
			ID:         s.ID,
			CPUCap:     s.Spec.Capacity(),
			MemCap:     s.Spec.MemoryGB,
			Efficiency: s.Spec.Efficiency(),
		}
		for _, v := range s.VMs() {
			if !shedIDs[v.ID] {
				b.Add(packing.Item{ID: v.ID, CPU: v.Demand, Mem: v.MemoryGB})
			}
		}
		bins = append(bins, b)
	}
	items := make([]packing.Item, len(shed))
	for i, sh := range shed {
		items[i] = itemFor(sh.vm)
	}
	asg, unplaced := refPAC(items, bins, cons, msCfg)
	rep.Unresolved += len(unplaced)
	serverByID := map[string]*cluster.Server{}
	for _, s := range dc.Servers {
		serverByID[s.ID] = s
	}
	for _, sh := range shed {
		binID, ok := asg[sh.vm.ID]
		if !ok {
			continue
		}
		target := serverByID[binID]
		if target == sh.from {
			continue
		}
		moved, err := migrateWithRetry(dc, sh.vm, target, inj, rep, nil)
		if err != nil {
			return fmt.Errorf("reference: overload migration failed: %w", err)
		}
		if !moved {
			rep.Unresolved++
		}
	}
	return nil
}

// refBinFor is the replaced per-round bin view, a fresh bin per call.
func refBinFor(s *cluster.Server) *packing.Bin {
	b := &packing.Bin{
		ID:         s.ID,
		CPUCap:     s.Spec.Capacity(),
		MemCap:     s.Spec.MemoryGB,
		Efficiency: s.Spec.Efficiency(),
	}
	for _, v := range s.VMs() {
		b.Add(packing.Item{ID: v.ID, CPU: v.Demand, Mem: v.MemoryGB})
	}
	return b
}
