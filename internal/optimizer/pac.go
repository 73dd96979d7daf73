package optimizer

import (
	"cmp"
	"fmt"
	"slices"

	"vdcpower/internal/cluster"
	"vdcpower/internal/fault"
	"vdcpower/internal/packing"
	"vdcpower/internal/telemetry"
)

// place solves the power-aware consolidation sub-problem of Section V
// (PAC) on plan storage: it packs pl.Items onto pl.Bins, taken in the
// order given (most power-efficient first), minimizing each bin's slack
// with Algorithm 1 until every item is placed or bins run out. The bins
// carry the planned load. It records in pl.Targets the bin each item
// was planned onto (nil if none) and leaves the unplaced items in
// pl.Rest, in their original order. It returns how many items stayed
// unplaced.
func place(pl *packing.Plan, cons packing.VectorConstraint, cfg packing.MinSlackConfig) int {
	sp := cfg.Trace.Start("optimizer.pac").Int("items", len(pl.Items)).Int("bins", len(pl.Bins))
	pl.Targets = slices.Grow(pl.Targets[:0], len(pl.Items))[:len(pl.Items)]
	clear(pl.Targets)
	rest := append(pl.Rest[:0], pl.Items...)
	for _, b := range pl.Bins {
		if len(rest) == 0 {
			break
		}
		res := packing.MinimumSlack(b, rest, cons, cfg)
		if len(res.Chosen) == 0 {
			continue
		}
		for _, it := range res.Chosen {
			b.Add(it)
		}
		// Rebuild the rest from the items no bin has taken, in order. It
		// only shrinks, so it is rewritten in place.
		n := 0
		for i, it := range pl.Items {
			if pl.Targets[i] == nil && chosen(res.Chosen, it.ID) {
				pl.Targets[i] = b
			}
			if pl.Targets[i] == nil {
				rest[n] = it
				n++
			}
		}
		rest = rest[:n]
	}
	pl.Rest = rest
	sp.Int("placed", len(pl.Items)-len(rest)).Int("unplaced", len(rest)).End()
	return len(rest)
}

// chosen reports whether the search result holds the item with this ID.
func chosen(res []packing.Item, id string) bool {
	for _, it := range res {
		if it.ID == id {
			return true
		}
	}
	return false
}

// IPAC is the Incremental Power Aware Consolidation algorithm: each
// invocation first resolves overloaded servers, then repeatedly drains
// the least power-efficient active server through PAC while the number of
// active servers keeps decreasing.
type IPAC struct {
	Constraint packing.VectorConstraint
	MinSlack   packing.MinSlackConfig
	Policy     CostPolicy
	// Faults, when non-nil, injects transient pass errors and migration
	// aborts; IPAC degrades by skipping the failed move (bounded retries
	// with deterministic backoff) instead of aborting the pass.
	Faults *fault.Injector

	trace *telemetry.Track // set via SetTrace; nil keeps tracing off
	pass  passState        // the pass's lists of servers and VMs, reused
}

// passState holds the lists of cluster objects a pass works through:
// the donor order, the donor's VMs and the shed list. The bins and items
// a pass plans with live in the MinSlack pool (packing.Plan). Only the
// capacity of these lists carries over from one pass to the next:
// release clears them, so the consolidator keeps no pointer into a data
// center between passes.
type passState struct {
	donors []donorKey
	vms    []*cluster.VM
	shed   []shedding
}

// donorKey is a server with its drain-order key, computed once per pass
// so that a sort comparison costs no division.
type donorKey struct {
	s     *cluster.Server
	eff   float64
	tried bool
}

// shedding is one VM overload relief moves off its server.
type shedding struct {
	vm *cluster.VM
	at int // the index in dc.Servers of the server it leaves
}

// shedFrom returns the shed list's VMs from server dc.Servers[i]. The
// list is grouped by server in fleet order, so binary search finds them.
func (st *passState) shedFrom(i int) []shedding {
	lo, _ := slices.BinarySearchFunc(st.shed, i, compareShedAt)
	hi := lo
	for hi < len(st.shed) && st.shed[hi].at == i {
		hi++
	}
	return st.shed[lo:hi]
}

func compareShedAt(sh shedding, i int) int { return cmp.Compare(sh.at, i) }

// release clears the lists, keeping their capacity.
func (st *passState) release() {
	clear(st.donors[:cap(st.donors)])
	clear(st.vms[:cap(st.vms)])
	clear(st.shed[:cap(st.shed)])
	st.donors, st.vms, st.shed = st.donors[:0], st.vms[:0], st.shed[:0]
}

// SetFaults implements fault.Injectable; harnesses wire the fault plane by
// type assertion, so the Consolidator interface stays fault-free.
func (o *IPAC) SetFaults(in *fault.Injector) { o.Faults = in }

// SetTrace implements telemetry.Traceable: consolidation rounds, B&B
// searches, and cost-policy vetoes record onto tk. Harnesses discover
// the method by type assertion, so the Consolidator interface stays
// telemetry-free.
func (o *IPAC) SetTrace(tk *telemetry.Track) {
	o.trace = tk
	o.MinSlack.Trace = tk
}

// SearchStats exposes the accumulated Algorithm 1 search effort (nil
// until NewIPAC wires a collector). Harnesses publish deltas per pass.
func (o *IPAC) SearchStats() *packing.SearchStats { return o.MinSlack.Stats }

// NewIPAC returns an IPAC with the default constraint (CPU with 10%
// headroom to absorb demand growth between invocations, plus memory),
// the default Minimum Slack tuning, and the allow-all cost policy. Its
// pool serves the searches and lends the passes their planning storage.
func NewIPAC() *IPAC {
	ms := packing.DefaultMinSlackConfig()
	ms.Stats = &packing.SearchStats{}
	ms.Pool = packing.NewPool()
	return &IPAC{
		Constraint: packing.VectorConstraint{CPUHeadroom: 0.1},
		MinSlack:   ms,
		Policy:     AllowAll{},
	}
}

// UsesDVFS implements Consolidator: IPAC integrates with the arbitrator's
// DVFS between invocations.
func (o *IPAC) UsesDVFS() bool { return true }

// Name implements Consolidator.
func (o *IPAC) Name() string { return "IPAC" }

// Consolidate implements Consolidator.
//
//vdc:hotpath fig6/energy-per-vm
func (o *IPAC) Consolidate(dc *cluster.DataCenter) (Report, error) {
	rep := Report{ActiveBefore: dc.NumActive()}
	root := o.trace.Start("ipac.consolidate").Int("active_before", rep.ActiveBefore)
	defer func() {
		o.pass.release()
		root.Int("rounds", rep.Rounds).Int("migrations", rep.Migrations).
			Int("vetoed", rep.Vetoed).Int("active_after", rep.ActiveAfter).End()
	}()
	if err := passError(dc, o.Faults, o.Name(), &rep); err != nil {
		return rep, err
	}
	if err := resolveOverloads(dc, o.Constraint, o.MinSlack, o.Faults, &rep, &o.pass); err != nil {
		return rep, err
	}

	o.orderDonors(dc)
	for {
		donor := o.pickDonor()
		if donor == nil {
			break
		}
		rep.Rounds++
		rsp := o.trace.Start("ipac.round").Str("donor", donor.ID)
		reduced := o.drain(dc, donor, &rep)
		rsp.Bool("drained", reduced).End()
		if !reduced {
			break // no reduction in active servers: stop (Section V)
		}
	}
	dc.SleepIdle()
	rep.ActiveAfter = dc.NumActive()
	return rep, nil
}

// orderDonors sorts the servers active after overload relief into drain
// order: cordoned servers first (maintenance outranks optimization),
// then the least power-efficient, then by ID. The key cannot change
// within a pass — cordons and specs are fixed, and drain rounds never
// wake a server — so the first server in this order that is still
// active, non-empty and untried is the one a per-round sort of the
// candidates would pick.
func (o *IPAC) orderDonors(dc *cluster.DataCenter) {
	o.pass.donors = o.pass.donors[:0]
	for _, s := range dc.Servers {
		if s.State() == cluster.Active {
			o.pass.donors = append(o.pass.donors, donorKey{s: s, eff: s.Spec.Efficiency()})
		}
	}
	slices.SortFunc(o.pass.donors, compareDonors)
}

func compareDonors(a, b donorKey) int {
	if a.s.Cordoned() != b.s.Cordoned() {
		if a.s.Cordoned() {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.eff, b.eff); c != 0 {
		return c
	}
	return cmp.Compare(a.s.ID, b.s.ID)
}

// pickDonor returns the next server to drain — the first in drain order
// that is active, non-empty and not yet tried — and marks it tried, or
// returns nil.
func (o *IPAC) pickDonor() *cluster.Server {
	for i := range o.pass.donors {
		d := &o.pass.donors[i]
		if !d.tried && d.s.State() == cluster.Active && d.s.NumVMs() > 0 {
			d.tried = true
			return d.s
		}
	}
	return nil
}

// drain plans moving every VM off donor via PAC onto the other active
// servers and commits the plan if it empties the donor. It reports
// whether the active-server count was reduced.
func (o *IPAC) drain(dc *cluster.DataCenter, donor *cluster.Server, rep *Report) bool {
	// The donor's VMs in ID order, and its items in the same order: the
	// i-th item is vms[i], and migrations commit in ID order.
	vms := append(o.pass.vms[:0], donor.VMs()...)
	slices.SortFunc(vms, compareVMIDs)
	o.pass.vms = vms
	pl := o.MinSlack.Pool.Plan()
	pl.Items = slices.Grow(pl.Items, len(vms))[:len(vms)]
	for i, v := range vms {
		pl.Items[i] = itemFor(v)
	}
	for _, i := range dc.ByEfficiency() {
		if s := dc.Servers[i]; s.State() == cluster.Active && s != donor && !s.Cordoned() {
			loadBin(pl.AddBin(i), s, nil)
		}
	}
	if place(pl, o.Constraint, o.MinSlack) > 0 {
		return false // the donor cannot be emptied: no reduction possible
	}
	emptied := true
	for i, vm := range vms {
		target := dc.Server(pl.Targets[i].ID)
		if !o.Policy.Allow(vm, donor, target, EstimateBenefit(vm, donor, target)) {
			rep.Vetoed++
			emptied = false
			o.trace.Event("optimizer.veto").Str("vm", vm.ID).
				Str("from", donor.ID).Str("to", target.ID).End()
			continue
		}
		moved, err := migrateWithRetry(dc, vm, target, o.Faults, rep, o.trace)
		if err != nil {
			// Should not happen: the plan was validated by the constraint.
			//lint:ignore panicpolicy invariant: the plan was validated by the constraint, failure to apply it is a packing bug
			panic(fmt.Sprintf("optimizer: planned migration failed: %v", err))
		}
		if !moved {
			// Injected abort exhausted its retries: skip-and-continue. The
			// VM stays on the donor, so this round cannot empty it.
			emptied = false
		}
	}
	if emptied {
		donor.Sleep()
	}
	return emptied
}

func compareVMIDs(a, b *cluster.VM) int { return cmp.Compare(a.ID, b.ID) }

// ResolveOverloadsWithFaults is the on-demand overload reliever of
// Section III: between two invocations of the full optimizer, "an
// unexpected increase of the workload can cause a severe overload on a
// server", and the paper integrates with algorithms that "move VMs from
// the overloaded servers to idle servers in an on-demand manner" (its
// reference [25]). It sheds VMs from overloaded servers and re-places
// them via PAC, reporting the moves; it never consolidates. Under a
// fault plane (inj non-nil) relief migrations go through the two-phase
// retry protocol, and moves that exhaust their retries leave the
// overload reported as unresolved instead of failing the pass.
func ResolveOverloadsWithFaults(dc *cluster.DataCenter, cons packing.VectorConstraint, cfg packing.MinSlackConfig, inj *fault.Injector) (Report, error) {
	rep := Report{ActiveBefore: dc.NumActive()}
	err := resolveOverloads(dc, cons, cfg, inj, &rep, &passState{})
	rep.ActiveAfter = dc.NumActive()
	return rep, err
}

// resolveOverloads sheds VMs from servers whose demand exceeds capacity
// (a workload increase since the last invocation) and re-places them via
// PAC, waking sleeping servers if necessary. Shedding always commits:
// it is a correctness fix, not an optimization. Its bins and items come
// from msCfg's pool when it has one; st holds the shed list.
//
//vdc:hotpath fig6/energy-per-vm
func resolveOverloads(dc *cluster.DataCenter, cons packing.VectorConstraint, msCfg packing.MinSlackConfig, inj *fault.Injector, rep *Report, st *passState) error {
	sp := msCfg.Trace.Start("optimizer.resolve_overloads")
	before := rep.Migrations
	defer func() {
		sp.Int("unresolved", rep.Unresolved).Int("migrations", rep.Migrations-before).End()
	}()
	st.shed = st.shed[:0]
	for i, s := range dc.Servers {
		if s.State() != cluster.Active || !s.Overloaded() {
			continue
		}
		// Shed the largest VMs first: fewest migrations to relieve the
		// overload.
		vms := append(st.vms[:0], s.VMs()...)
		slices.SortFunc(vms, compareShedOrder)
		st.vms = vms
		excess := s.TotalDemand() - s.Spec.Capacity()
		for _, v := range vms {
			if excess <= 0 {
				break
			}
			//lint:ignore hotalloc high-water-mark growth: the shed list keeps its capacity from pass to pass
			st.shed = append(st.shed, shedding{vm: v, at: i})
			excess -= v.Demand
		}
	}
	if len(st.shed) == 0 {
		return nil
	}
	// Bins: every non-cordoned, non-failed server (sleeping ones may be
	// woken), minus the shed VMs, most power-efficient first.
	pl := msCfg.Pool.Plan()
	for _, i := range dc.ByEfficiency() {
		if s := dc.Servers[i]; !s.Cordoned() && s.State() != cluster.Failed {
			loadBin(pl.AddBin(i), s, st.shedFrom(i))
		}
	}
	pl.Items = slices.Grow(pl.Items, len(st.shed))[:len(st.shed)]
	for i, sh := range st.shed {
		pl.Items[i] = itemFor(sh.vm)
	}
	rep.Unresolved += place(pl, cons, msCfg)
	for i, sh := range st.shed {
		if pl.Targets[i] == nil {
			continue // unplaced: the overload stays (reported)
		}
		target := dc.Server(pl.Targets[i].ID)
		if target == dc.Servers[sh.at] {
			continue // re-packed in place
		}
		// Overload relief bypasses the cost policy: SLAs outrank cost.
		moved, err := migrateWithRetry(dc, sh.vm, target, inj, rep, msCfg.Trace)
		if err != nil {
			return fmt.Errorf("optimizer: overload migration failed: %w", err)
		}
		if !moved {
			rep.Unresolved++ // retries exhausted: the overload stays
		}
	}
	return nil
}

// compareShedOrder orders a server's VMs for shedding: largest demand
// first, with an exact ID tie-break.
func compareShedOrder(a, b *cluster.VM) int {
	if c := cmp.Compare(b.Demand, a.Demand); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}
