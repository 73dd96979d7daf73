// Package dcsim is the large-scale data-center simulator of Section VI-B:
// it replays a utilization trace as per-VM CPU demands over a fleet of
// heterogeneous servers (the three CPU types of the paper), invokes a
// consolidation policy on the optimizer's long time scale, applies DVFS
// between invocations when the policy supports it, and accounts energy.
// It regenerates Figure 6 and the consolidation ablations.
package dcsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/core"
	"vdcpower/internal/fault"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/packing"
	"vdcpower/internal/power"
	"vdcpower/internal/probe"
	"vdcpower/internal/telemetry"
	"vdcpower/internal/workload"
)

// Config parameterizes one simulation run.
type Config struct {
	Trace  *workload.Trace
	NumVMs int // VMs drawn from the head of the trace

	// FleetSize is the number of physical servers available. The paper
	// generates a fixed fleet of 3,000 servers and assumes every data
	// center "has enough inactive servers"; the fleet does NOT scale
	// with the VM count, which is why per-VM energy grows with data
	// center size — the efficient servers run out.
	FleetSize int
	// FleetMix gives the fraction of high-end, mid and low servers.
	// High-end servers are deliberately scarce so large data centers
	// spill onto less efficient hardware.
	FleetMix [3]float64

	// Per-VM peak CPU requirement (GHz) and memory (GB), drawn uniformly
	// from these ranges; trace utilization scales the peak.
	VMPeakMin, VMPeakMax float64
	VMMemMin, VMMemMax   float64

	Seed int64

	// OptimizeEverySteps is the optimizer invocation interval in trace
	// steps (16 steps of 15 min = 4 hours — "hours to days").
	OptimizeEverySteps int

	Consolidator optimizer.Consolidator

	// Headroom is the DVFS frequency-selection headroom.
	Headroom float64

	// ProvisionPeak makes the initial placement use each VM's peak
	// demand over the whole trace instead of its first-step demand —
	// how a static (non-consolidating) data center must be provisioned
	// to avoid overload.
	ProvisionPeak bool

	// WatchdogEverySteps enables the on-demand overload reliever of
	// Section III (the paper's reference [25]): every this many trace
	// steps, VMs are moved off overloaded servers without waiting for
	// the next full optimizer invocation. 0 disables it.
	WatchdogEverySteps int

	// OnStep, if set, observes every trace step: the instantaneous
	// power, the active server count, and the aggregate VM demand. Use
	// it to extract diurnal time series without rerunning.
	OnStep func(step int, powerW float64, activeServers int, demandGHz float64)

	// OnDone, if set, receives the final data center before Run returns —
	// for snapshotting (cluster.Snapshot) or custom inspection.
	OnDone func(dc *cluster.DataCenter)

	// Probe, if set, receives every fact of the run as a typed event: the
	// initial placement, every migration transition, crash, consolidator
	// and watchdog pass, and every step's power and SLO verdict. Run
	// returns the probe's verdict (checker violations) as an error at the
	// end. Nil observes nothing.
	Probe *probe.Probe

	// Telemetry, when non-nil, records the run's control flow as nested
	// spans on this track: a "dcsim.run" root, consolidation and
	// watchdog passes (with the optimizer's own spans nested inside),
	// per-server arbitrator passes, and cluster transitions. The track's
	// logical clock is set to simulation time each step, so same-seed
	// runs produce byte-identical traces. Nil disables tracing at ~zero
	// cost. (Named Telemetry because Trace is the workload trace.)
	Telemetry *telemetry.Track

	// Faults, when non-nil, injects the deterministic fault plane into the
	// run: DVFS actuation failures, migration aborts (absorbed by the
	// optimizer's retry protocol), transient consolidator/watchdog pass
	// errors (the pass is skipped, the run continues), and server crashes
	// (VMs evacuated or lost per the profile's policy). Same-seed fault
	// runs are bit-reproducible. Nil disables injection at ~zero cost.
	Faults *fault.Injector
}

// DefaultConfig mirrors Section VI-B for the given trace slice size.
func DefaultConfig(trace *workload.Trace, numVMs int, cons optimizer.Consolidator) Config {
	return Config{
		Trace:              trace,
		NumVMs:             numVMs,
		FleetSize:          3000,
		FleetMix:           [3]float64{0.08, 0.25, 0.67},
		VMPeakMin:          1.0,
		VMPeakMax:          3.0,
		VMMemMin:           0.25,
		VMMemMax:           1.5,
		Seed:               7,
		OptimizeEverySteps: 16,
		Consolidator:       cons,
		Headroom:           0.1,
	}
}

// Result summarizes one run.
type Result struct {
	Policy        string
	NumVMs        int
	NumServers    int
	Steps         int
	TotalEnergyWh float64
	EnergyPerVMWh float64
	Migrations    int
	Vetoed        int
	Unresolved    int
	MeanActive    float64
	FinalActive   int
	// OverloadSteps counts (server, step) pairs where an active server's
	// demand exceeded its capacity — time spent violating performance.
	OverloadSteps int
	// WatchdogMoves counts migrations performed by the on-demand
	// overload reliever (included in Migrations).
	WatchdogMoves int
	// FailedMoves counts planned migrations abandoned after exhausting
	// their fault-plane retries.
	FailedMoves int
	// DegradedPasses counts consolidator/watchdog passes skipped on an
	// injected transient error (the run continued degraded).
	DegradedPasses int
	// Crashes counts servers failed by the fault plane; VMsEvacuated and
	// VMsLost split the fates of their hosted VMs.
	Crashes      int
	VMsEvacuated int
	VMsLost      int
	// FaultsInjected totals every fault the plane injected; FaultLog is
	// the full typed record (empty without a fault plane).
	FaultsInjected int
	FaultLog       []fault.Record
}

// String renders the result on one line.
func (r Result) String() string {
	return fmt.Sprintf("%s: vms=%d servers=%d energy/VM=%.1f Wh migrations=%d meanActive=%.1f",
		r.Policy, r.NumVMs, r.NumServers, r.EnergyPerVMWh, r.Migrations, r.MeanActive)
}

// Run executes the simulation over the whole trace.
func Run(cfg Config) (Result, error) {
	if cfg.Trace == nil {
		return Result{}, fmt.Errorf("dcsim: nil trace")
	}
	if cfg.Consolidator == nil {
		return Result{}, fmt.Errorf("dcsim: nil consolidator")
	}
	tr, err := cfg.Trace.Slice(cfg.NumVMs)
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// VM population: peak requirement and memory per VM.
	peaks := make([]float64, cfg.NumVMs)
	vms := make([]*cluster.VM, cfg.NumVMs)
	for i := 0; i < cfg.NumVMs; i++ {
		peaks[i] = cfg.VMPeakMin + (cfg.VMPeakMax-cfg.VMPeakMin)*rng.Float64()
		vms[i] = &cluster.VM{
			ID:       tr.Names[i],
			Demand:   tr.At(i, 0) * peaks[i],
			MemoryGB: cfg.VMMemMin + (cfg.VMMemMax-cfg.VMMemMin)*rng.Float64(),
		}
	}

	// Server fleet: the three CPU types of Section VI-B with the
	// configured mix, interleaved deterministically so the index order
	// carries no efficiency bias.
	nServers := cfg.FleetSize
	if nServers < 3 {
		return Result{}, fmt.Errorf("dcsim: fleet of %d is too small", nServers)
	}
	types := power.AllTypes()
	counts := [3]int{}
	mixSum := cfg.FleetMix[0] + cfg.FleetMix[1] + cfg.FleetMix[2]
	if mixSum <= 0 {
		return Result{}, fmt.Errorf("dcsim: fleet mix %v sums to zero", cfg.FleetMix)
	}
	for i := 0; i < 2; i++ {
		counts[i] = int(math.Round(float64(nServers) * cfg.FleetMix[i] / mixSum))
	}
	counts[2] = nServers - counts[0] - counts[1]
	if counts[2] < 0 {
		return Result{}, fmt.Errorf("dcsim: fleet mix %v is inconsistent", cfg.FleetMix)
	}
	servers := make([]*cluster.Server, 0, nServers)
	remaining := counts
	for len(servers) < nServers {
		for t := 0; t < 3; t++ {
			if remaining[t] > 0 {
				servers = append(servers, cluster.NewServer(fmt.Sprintf("srv-%04d", len(servers)), types[t]))
				remaining[t]--
			}
		}
	}
	dc, err := cluster.NewDataCenter(servers)
	if err != nil {
		return Result{}, err
	}
	tk := cfg.Telemetry
	if tk != nil {
		dc.SetTrace(tk)
		if t, ok := cfg.Consolidator.(telemetry.Traceable); ok {
			t.SetTrace(tk)
		}
	}
	if f, ok := cfg.Consolidator.(fault.Injectable); ok && cfg.Faults != nil {
		f.SetFaults(cfg.Faults)
	}
	// A probed run observes every two-phase migration transition as it
	// happens, so the no-double-placement law sees the reserved state, not
	// just the settled post-pass placement.
	curStep := -1
	if cfg.Probe != nil {
		dc.SetMigrationObserver(func(tx *cluster.MigrationTx) {
			cfg.Probe.Emit(check.Event{Kind: check.EvMigration, Step: curStep, DC: dc, Migration: &check.MigrationObservation{
				VMID: tx.VM().ID, From: tx.Source().ID, To: tx.Target().ID, Phase: string(tx.Phase())}})
		})
	}
	// Initial placement: FFD at the first step's demands — a neutral
	// starting point shared by every policy — or at peak demands when
	// provisioning statically.
	placeDemand := make([]float64, cfg.NumVMs)
	for i := range placeDemand {
		placeDemand[i] = vms[i].Demand
		if cfg.ProvisionPeak {
			peakU := 0.0
			for k := 0; k < tr.NumSteps(); k++ {
				if u := tr.At(i, k); u > peakU {
					peakU = u
				}
			}
			placeDemand[i] = peakU * peaks[i]
		}
	}
	if err := initialPlacement(dc, vms, placeDemand); err != nil {
		return Result{}, err
	}
	dc.SleepIdle()
	cfg.Probe.Emit(check.Event{Kind: check.EvInit, Step: -1, DC: dc})

	res := Result{
		Policy:     cfg.Consolidator.Name(),
		NumVMs:     cfg.NumVMs,
		NumServers: nServers,
		Steps:      tr.NumSteps(),
	}
	tk.SetTime(0)
	root := tk.Start("dcsim.run").Str("policy", res.Policy).
		Int("vms", cfg.NumVMs).Int("servers", nServers)
	defer func() {
		root.Int("migrations", res.Migrations).Float("energy_per_vm_wh", res.EnergyPerVMWh).End()
	}()
	var meter power.Meter
	activeSum := 0.0
	// finish fills the aggregate fields from whatever the run accumulated,
	// so error paths return a usable partial Result alongside the error
	// (stepsDone counts fully accounted steps).
	finish := func(stepsDone int) {
		res.Steps = stepsDone
		res.TotalEnergyWh = meter.Wh()
		res.EnergyPerVMWh = meter.Wh() / float64(cfg.NumVMs)
		if stepsDone > 0 {
			res.MeanActive = activeSum / float64(stepsDone)
		}
		res.FinalActive = dc.NumActive()
		res.FaultsInjected = cfg.Faults.Injected()
		res.FaultLog = cfg.Faults.Log()
	}
	for k := 0; k < tr.NumSteps(); k++ {
		tk.SetTime(float64(k) * tr.StepSeconds)
		curStep = k
		cfg.Faults.SetStep(k)
		// New demands from the trace.
		for i, v := range vms {
			v.Demand = tr.At(i, k) * peaks[i]
		}
		// Whole-server crashes fire before this step's passes, so the
		// optimizer and the DVFS arbiter see the post-crash fleet.
		if cfg.Faults != nil {
			applyCrashes(dc, cfg, k, &res)
		}
		pass := probe.Pass{Step: k, TimeSec: float64(k) * tr.StepSeconds}
		if k%cfg.OptimizeEverySteps == 0 {
			pass.Kind, pass.Span, pass.Policy = check.EvConsolidate, "dcsim.consolidate", res.Policy
			csp := tk.Start(pass.Span).Int("step", k)
			rep, degraded, err := cfg.Probe.Pass(dc, pass, cfg.Consolidator, func() (optimizer.Report, error) {
				return cfg.Consolidator.Consolidate(dc)
			})
			csp.Int("migrations", rep.Migrations).Int("vetoed", rep.Vetoed).End()
			if err != nil {
				// A real error aborts, but returns the partial result
				// accumulated so far.
				finish(k)
				return res, err
			}
			res.tally(rep, degraded)
			res.Vetoed += rep.Vetoed
		} else if cfg.WatchdogEverySteps > 0 && k%cfg.WatchdogEverySteps == 0 {
			pass.Kind, pass.Span, pass.Policy = check.EvWatchdog, "dcsim.watchdog", "watchdog"
			wCfg := packing.DefaultMinSlackConfig()
			wCfg.Trace = tk
			wsp := tk.Start(pass.Span).Int("step", k)
			rep, degraded, err := cfg.Probe.Pass(dc, pass, nil, func() (optimizer.Report, error) {
				return optimizer.ResolveOverloadsWithFaults(dc, packing.VectorConstraint{CPUHeadroom: cfg.Headroom}, wCfg, cfg.Faults)
			})
			wsp.Int("migrations", rep.Migrations).End()
			if err != nil {
				finish(k)
				return res, err
			}
			res.tally(rep, degraded)
			res.WatchdogMoves += rep.Migrations
		}
		// Server-level frequency decision for the step, and energy
		// accounting. Suspended and crashed servers are treated as powered
		// off and unaccounted, as in the paper.
		var dvfs *telemetry.Span
		if tk != nil {
			dvfs = tk.Start("arbitrate.dvfs").Int("step", k)
		}
		stepPower := 0.0
		overloadsBefore := res.OverloadSteps
		for _, s := range dc.Servers {
			if s.State() != cluster.Active {
				continue
			}
			if cfg.Consolidator.UsesDVFS() {
				arb := core.Arbitrator{Server: s, Headroom: cfg.Headroom, Trace: tk, Faults: cfg.Faults}
				arb.Throttle()
			} else {
				s.SetFreq(s.Spec.MaxFreq)
			}
			if s.Overloaded() {
				res.OverloadSteps++
			}
			stepPower += s.Power()
		}
		dvfs.Float("power_w", stepPower).End()
		nActive := dc.NumActive()
		meter.Accumulate(stepPower, tr.StepSeconds)
		// The paper's performance objective at data-center scale: no
		// active server's demand exceeds its capacity this step.
		cfg.Probe.Emit(check.Event{
			Kind: check.EvStep, Step: k, TimeSec: float64(k) * tr.StepSeconds, DC: dc,
			PowerW: stepPower, EnergyJ: meter.Joules(), HasPower: true, HasEnergy: true,
			Active: nActive, SLOMet: res.OverloadSteps == overloadsBefore, HasSLO: true,
		})
		activeSum += float64(nActive)
		if cfg.OnStep != nil {
			demand := 0.0
			for _, v := range vms {
				demand += v.Demand
			}
			cfg.OnStep(k, stepPower, nActive, demand)
		}
	}
	finish(tr.NumSteps())
	if err := dc.CheckInvariants(); err != nil {
		return res, err
	}
	if cfg.OnDone != nil {
		cfg.OnDone(dc)
	}
	return res, cfg.Probe.Err()
}

// tally adds one pass's report to the run's totals; a degraded pass was
// skipped on an injected error and the run continued.
func (r *Result) tally(rep optimizer.Report, degraded bool) {
	if degraded {
		r.DegradedPasses++
	}
	r.Migrations += rep.Migrations
	r.Unresolved += rep.Unresolved
	r.FailedMoves += rep.FailedMoves
}

// initialPlacement first-fit-decreasing places the VMs using the given
// per-VM provisioning demands.
func initialPlacement(dc *cluster.DataCenter, vms []*cluster.VM, demands []float64) error {
	var bins []*packing.Bin
	for _, s := range dc.Servers {
		bins = append(bins, &packing.Bin{
			ID:         s.ID,
			CPUCap:     s.Spec.Capacity(),
			MemCap:     s.Spec.MemoryGB,
			Efficiency: s.Spec.Efficiency(),
		})
	}
	items := make([]packing.Item, len(vms))
	for i, v := range vms {
		items[i] = packing.Item{ID: v.ID, CPU: demands[i], Mem: v.MemoryGB}
	}
	asg, unplaced := packing.FirstFitDecreasing(items, bins, packing.VectorConstraint{})
	if len(unplaced) > 0 {
		return fmt.Errorf("dcsim: %d VMs could not be placed initially", len(unplaced))
	}
	// Iterate the item slice, not the assignment map: map order is
	// random per process and would make per-server VM order — and with
	// it floating-point summation — nondeterministic. items[i] is vms[i].
	for i, it := range items {
		binID, ok := asg[it.ID]
		if !ok {
			continue
		}
		if err := dc.Place(vms[i], dc.Server(binID)); err != nil {
			return err
		}
	}
	return nil
}

// applyCrashes fails the servers the fault plane schedules for step k, then
// disposes of their VMs per the crash policy: evacuate re-places them on
// the surviving fleet, lose drops them and reports the loss in the crash
// fact, so the conservation laws shrink their baseline instead of flagging
// a phantom violation.
func applyCrashes(dc *cluster.DataCenter, cfg Config, k int, res *Result) {
	candidates := make([]string, 0, len(dc.Servers))
	for _, s := range dc.Servers {
		if s.State() == cluster.Active {
			candidates = append(candidates, s.ID)
		}
	}
	for _, cr := range cfg.Faults.Crashes(k, candidates) {
		srv := dc.Server(cr.Server)
		if srv == nil || srv.State() == cluster.Failed {
			continue
		}
		orphans := dc.Crash(srv)
		res.Crashes++
		var lost []string
		if cr.Policy == fault.Lose {
			res.VMsLost += len(orphans)
			for _, v := range orphans {
				lost = append(lost, v.ID)
			}
		} else {
			res.VMsEvacuated += len(orphans)
			evacuate(dc, orphans)
		}
		cfg.Probe.Emit(check.Event{
			Kind: check.EvCrash, Step: k, TimeSec: float64(k) * cfg.Trace.StepSeconds, DC: dc, LostVMs: lost,
			Crash: check.CrashObservation{Server: srv.ID, Evacuated: len(orphans) - len(lost), Lose: cr.Policy == fault.Lose},
		})
	}
}

// evacuate re-places crash orphans over the surviving fleet: first fit by
// decreasing demand onto the first non-failed, non-cordoned server with CPU
// and memory room (waking sleeping servers as needed). When nothing fits,
// the VM is forced onto the surviving server with the most CPU slack — a
// transient overload the watchdog can relieve beats losing customer state.
func evacuate(dc *cluster.DataCenter, orphans []*cluster.VM) {
	sort.Slice(orphans, func(i, j int) bool {
		if orphans[i].Demand > orphans[j].Demand {
			return true
		}
		if orphans[j].Demand > orphans[i].Demand {
			return false
		}
		return orphans[i].ID < orphans[j].ID
	})
	for _, v := range orphans {
		var target, fallback *cluster.Server
		bestSlack := math.Inf(-1)
		for _, s := range dc.Servers {
			if s.State() == cluster.Failed || s.Cordoned() {
				continue
			}
			slack := s.Spec.Capacity() - s.TotalDemand()
			if slack > bestSlack {
				bestSlack = slack
				fallback = s
			}
			if target == nil && slack >= v.Demand && s.TotalMemory()+v.MemoryGB <= s.Spec.MemoryGB {
				target = s
			}
		}
		if target == nil {
			target = fallback
		}
		if target == nil {
			// The whole fleet is failed or cordoned; nothing to do — the
			// VM is gone and conservation laws will flag it, correctly.
			continue
		}
		// Place cannot fail here: the VM was just detached (unplaced) and
		// the target is neither failed nor cordoned.
		if err := dc.Place(v, target); err != nil {
			panic(fmt.Sprintf("dcsim: evacuation re-place failed: %v", err)) //lint:ignore panicpolicy placement invariant broken
		}
	}
}

// Fig6Point is one x-position of Figure 6: energy per VM over the whole
// trace for each policy at a given data-center size.
type Fig6Point struct {
	NumVMs  int
	PerVMWh map[string]float64 // policy name → Wh per VM
}

// Fig6 sweeps data-center sizes and runs every policy on identical
// workloads, reproducing the paper's energy-per-VM comparison. Policies
// are constructed fresh per run via the factory functions so no state
// leaks between sizes.
func Fig6(trace *workload.Trace, sizes []int, policies []func() optimizer.Consolidator) ([]Fig6Point, error) {
	var out []Fig6Point
	for _, n := range sizes {
		pt := Fig6Point{NumVMs: n, PerVMWh: map[string]float64{}}
		for _, mk := range policies {
			cons := mk()
			cfg := DefaultConfig(trace, n, cons)
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			pt.PerVMWh[cons.Name()] = res.EnergyPerVMWh
		}
		out = append(out, pt)
	}
	return out, nil
}
