// Package testbed reproduces the hardware-testbed experiments of Section
// VII-A on the simulated substrate: a small data center of four servers
// hosting eight two-tier RUBBoS-like applications (16 VMs), each under a
// MIMO response time controller, with server-level arbitrators applying
// DVFS. System identification runs first, exactly as in Section IV-B, and
// the identified model is shared by all applications (they run the same
// software stack).
package testbed

import (
	"errors"
	"fmt"

	"vdcpower/internal/appsim"
	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/core"
	"vdcpower/internal/devs"
	"vdcpower/internal/fault"
	"vdcpower/internal/guard"
	"vdcpower/internal/mpc"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/power"
	"vdcpower/internal/probe"
	"vdcpower/internal/sysid"
	"vdcpower/internal/telemetry"
	"vdcpower/internal/units"
)

// Config sizes the testbed. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	NumServers  int     // physical servers (paper: 4)
	NumApps     int     // two-tier applications (paper: 8)
	Concurrency int     // clients per application (paper: 40)
	Setpoint    float64 // response time target in seconds (paper: 1.0)
	Period      float64 // control period T in seconds
	Seed        int64

	// Identification experiment length, in control periods.
	IdentWarmupSec float64
	IdentPeriods   int

	// Per-VM allocation bounds for the controllers.
	CMin, CMax float64

	// Tiers optionally overrides the application profile. Nil selects
	// the two-tier RUBBoS-like default (web + database).
	Tiers []appsim.TierConfig
}

// DefaultConfig mirrors Section VI-A / VII-A.
func DefaultConfig() Config {
	return Config{
		NumServers:     4,
		NumApps:        8,
		Concurrency:    40,
		Setpoint:       1.0,
		Period:         4.0,
		Seed:           1,
		IdentWarmupSec: 40,
		IdentPeriods:   100,
		CMin:           0.1,
		CMax:           2.5,
	}
}

// appTiers returns the RUBBoS-like two-tier profile: an Apache/PHP web
// tier and a heavier MySQL tier.
func appTiers() []appsim.TierConfig {
	return []appsim.TierConfig{
		{DemandMean: 0.025, DemandCV: 1.0, InitialAllocation: 0.8},
		{DemandMean: 0.040, DemandCV: 1.0, InitialAllocation: 0.8},
	}
}

// Testbed is one instantiated experiment environment.
type Testbed struct {
	Cfg         Config
	Sim         *devs.Simulator
	Apps        []*appsim.App
	Controllers []*core.ResponseTimeController
	DC          *cluster.DataCenter
	Arbitrators []*core.Arbitrator
	Model       *sysid.Model
	Fit         sysid.FitMetrics

	vms     [][]*cluster.VM   // [app][tier]
	vmIndex map[string][2]int // VM ID → (app, tier)

	// Data-center level (optional): a consolidator invoked during Run,
	// with live-migration downtime applied to the affected tiers.
	cons      optimizer.Consolidator
	consPass  func() (optimizer.Report, error) // cons over DC, bound once for probe.Pass
	consEvery int                              // periods between invocations
	migModel  cluster.MigrationModel

	probe   *probe.Probe
	energyJ float64 // cumulative energy reported to the probe

	tracer *telemetry.Tracer

	faults      *fault.Injector
	periodCount int // control periods executed across every Run call

	// stepBudget bounds each control period's event drain (SetStepBudget).
	// The zero budget imposes no bound, preserving the unguarded behavior
	// byte for byte.
	stepBudget devs.Budget

	// records and t90 hold the period records Run and RunStatic return
	// and their T90 rows, reused by every call (periodRecords).
	records []PeriodRecord
	t90     []float64
}

// New builds the testbed, runs the identification experiment on the first
// application, fits the shared ARX(1,2) model, and attaches a response
// time controller to every application.
func New(cfg Config) (*Testbed, error) {
	tb, err := build(cfg)
	if err != nil {
		return nil, err
	}
	if err := tb.control(); err != nil {
		return nil, err
	}
	return tb, nil
}

// control runs the identification experiment and attaches a response
// time controller to every application.
func (tb *Testbed) control() error {
	if err := tb.identify(); err != nil {
		return err
	}
	for _, app := range tb.Apps {
		ctlCfg := core.DefaultControllerConfig(tb.Model, tb.Cfg.Setpoint)
		ctlCfg.SensorID = app.Name // scope fault-plane sensor decisions per app
		for i := range ctlCfg.CMin {
			ctlCfg.CMin[i] = tb.Cfg.CMin
			ctlCfg.CMax[i] = tb.Cfg.CMax
		}
		ctl, err := core.NewResponseTimeController(app, ctlCfg)
		if err != nil {
			return err
		}
		tb.Controllers = append(tb.Controllers, ctl)
	}
	return nil
}

// build assembles the data center and places and starts every
// application, leaving identification and control to New. Each
// application runs in its own event domain of tb.Sim: applications touch
// one another only between control periods, so tb.Sim drains them at
// once on the devs helper pool, and each fires its events in the order
// one shared queue would.
func build(cfg Config) (*Testbed, error) {
	if cfg.NumServers < 1 || cfg.NumApps < 1 {
		return nil, fmt.Errorf("testbed: need at least one server and app, got %d/%d", cfg.NumServers, cfg.NumApps)
	}
	tb := &Testbed{Cfg: cfg, Sim: devs.NewSimulator()}

	var servers []*cluster.Server
	for i := 0; i < cfg.NumServers; i++ {
		servers = append(servers, cluster.NewServer(fmt.Sprintf("S%d", i+1), power.TypeHighEnd()))
	}
	dc, err := cluster.NewDataCenter(servers)
	if err != nil {
		return nil, err
	}
	tb.DC = dc
	for _, s := range servers {
		tb.Arbitrators = append(tb.Arbitrators, &core.Arbitrator{Server: s, Headroom: 0.1})
	}

	// Applications and their VMs, placed round-robin over the servers.
	tiers := cfg.Tiers
	if len(tiers) == 0 {
		tiers = appTiers()
	}
	tb.vmIndex = make(map[string][2]int)
	slot := 0
	for i := 0; i < cfg.NumApps; i++ {
		app := appsim.New(tb.Sim.NewDomain(), appsim.Config{
			Name:        fmt.Sprintf("App%d", i+1),
			Tiers:       tiers,
			Concurrency: cfg.Concurrency,
			ThinkTime:   1.0,
			Seed:        cfg.Seed + int64(i)*977,
		})
		tb.Apps = append(tb.Apps, app)
		tiers := make([]*cluster.VM, app.NumTiers())
		for j := range tiers {
			vm := &cluster.VM{
				ID:       fmt.Sprintf("app%d-tier%d", i+1, j+1),
				App:      app.Name,
				Tier:     j,
				Demand:   app.Allocation(j),
				MemoryGB: 2,
			}
			if err := dc.Place(vm, servers[slot%len(servers)]); err != nil {
				return nil, err
			}
			tiers[j] = vm
			tb.vmIndex[vm.ID] = [2]int{i, j}
			slot++
		}
		tb.vms = append(tb.vms, tiers)
		app.Start()
	}
	return tb, nil
}

// identify runs the Section IV-B identification experiment on App1 and
// keeps the fitted model, which every application shares. It then
// restores every application's initial allocations and empties its
// response window before control starts.
func (tb *Testbed) identify() error {
	initial := tb.Apps[0].Allocations() // every application starts alike
	var err error
	tb.Model, tb.Fit, err = core.Identify(tb.Apps[0], func(d units.Second) { tb.Sim.RunUntil(tb.Sim.Now() + d) }, tb.Cfg.experiment())
	if err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	for _, a := range tb.Apps {
		for j, c := range initial {
			a.SetAllocation(j, c)
		}
		a.DrainResponseTimes()
	}
	return nil
}

// experiment is the identification experiment New runs on App1.
func (cfg Config) experiment() core.Experiment {
	return core.Experiment{
		Warmup: cfg.IdentWarmupSec, Periods: cfg.IdentPeriods, Period: cfg.Period,
		CMin: cfg.CMin, CMax: cfg.CMax, Seed: cfg.Seed + 10007,
	}
}

// AttachOptimizer enables the data-center level of Figure 1 during Run:
// cons is invoked every everyPeriods control periods, and each performed
// migration pauses the affected application tier for the stop-and-copy
// downtime given by the migration model.
func (tb *Testbed) AttachOptimizer(cons optimizer.Consolidator, everyPeriods int, model cluster.MigrationModel) error {
	if cons == nil {
		return fmt.Errorf("testbed: nil consolidator")
	}
	if everyPeriods < 1 {
		return fmt.Errorf("testbed: invocation interval %d must be >= 1", everyPeriods)
	}
	if err := model.Validate(); err != nil {
		return err
	}
	tb.cons = cons
	tb.consPass = func() (optimizer.Report, error) { return cons.Consolidate(tb.DC) }
	tb.consEvery = everyPeriods
	tb.migModel = model
	if tb.tracer != nil {
		if t, ok := cons.(telemetry.Traceable); ok {
			t.SetTrace(tb.tracer.Track("optimizer"))
		}
	}
	if tb.faults != nil {
		if f, ok := cons.(fault.Injectable); ok {
			f.SetFaults(tb.faults)
		}
	}
	return nil
}

// AttachFaults wires the deterministic fault plane through every layer of
// the testbed: controllers read their response-time sensor through the
// injector (keyed by app name), arbitrators consult DVFS actuation
// failures, and an attached consolidator injects migration aborts and
// transient pass errors. Run advances the injector's step cursor once per
// control period, counted across every Run call, so serve's
// one-period-at-a-time stepping keeps the same fault schedule as one long
// run. Nil detaches.
func (tb *Testbed) AttachFaults(inj *fault.Injector) {
	tb.faults = inj
	for _, ctl := range tb.Controllers {
		ctl.SetFaults(inj)
	}
	for _, arb := range tb.Arbitrators {
		arb.Faults = inj
	}
	if f, ok := tb.cons.(fault.Injectable); ok {
		f.SetFaults(inj)
	}
}

// SetStepBudget bounds every subsequent control period's event drain.
// When a bound trips, Run returns the periods completed so far plus a
// *guard.StepAbort instead of spinning (the wedge of DESIGN §14 becomes a
// failed step the circuit breaker can react to). The zero budget removes
// every bound. The budget's Interrupt callback, if any, must not touch
// the simulation — it is the wall-clock watchdog's only way in, and the
// testbed itself never reads a real clock.
func (tb *Testbed) SetStepBudget(b devs.Budget) { tb.stepBudget = b }

// AttachTelemetry wires span tracing into the testbed. It builds a tracer
// on the simulator clock — spans carry logical sim-time, so same-seed
// runs trace identically and the determinism analyzer stays green — and
// gives each controller its own "mpc-<app>" track, the arbitrators a
// shared "arbitrate" track, and the data center plus any attached
// consolidator an "optimizer" track. capacity <= 0 selects the default
// track capacity. The returned tracer is the export handle (Snapshot →
// telemetry.WriteChromeTrace).
func (tb *Testbed) AttachTelemetry(capacity int) *telemetry.Tracer {
	tr := telemetry.New(tb.Sim.Now, capacity)
	tb.tracer = tr
	for i, ctl := range tb.Controllers {
		ctl.SetTrace(tr.Track("mpc-" + tb.Apps[i].Name))
	}
	atk := tr.Track("arbitrate")
	for _, arb := range tb.Arbitrators {
		arb.Trace = atk
	}
	otk := tr.Track("optimizer")
	tb.DC.SetTrace(otk)
	if t, ok := tb.cons.(telemetry.Traceable); ok {
		t.SetTrace(otk)
	}
	return tr
}

// AttachProbe makes the testbed emit every fact it observes into p: an
// EvInit with the placement, the applications and their set point now,
// then per control period the bounded drain (EvGuard), every controller
// step (EvControl), every consolidator pass (EvConsolidate) and the power
// accounting (EvStep). Run returns the probe's verdict after the loop.
// Nil detaches.
func (tb *Testbed) AttachProbe(p *probe.Probe) {
	tb.probe = p
	tb.energyJ = 0
	apps := make([]string, len(tb.Apps))
	for i, app := range tb.Apps {
		apps[i] = app.Name
	}
	p.Emit(check.Event{Kind: check.EvInit, Step: -1, TimeSec: tb.Sim.Now(), DC: tb.DC, Apps: apps, SetpointSec: tb.Cfg.Setpoint})
}

// consolidate runs one optimizer invocation and applies migration
// downtime to the moved tiers. A pass degraded by an injected error is
// skipped and retried at the next interval; a real error aborts the run.
func (tb *Testbed) consolidate(period int) error {
	pass := probe.Pass{Kind: check.EvConsolidate, Step: period, TimeSec: tb.Sim.Now(), Span: "optimizer", Policy: tb.cons.Name()}
	rep, _, err := tb.probe.Pass(tb.DC, pass, tb.cons, tb.consPass)
	if err != nil {
		return err
	}
	for _, mv := range rep.Moves {
		if idx, ok := tb.vmIndex[mv.VM.ID]; ok {
			tb.Apps[idx[0]].PauseTier(idx[1], tb.migModel.Downtime(mv.VM.MemoryGB))
		}
	}
	return nil
}

// PeriodRecord captures one control period of one run.
type PeriodRecord struct {
	Time    float64
	T90     []float64 // per application, seconds
	PowerW  float64   // total cluster power
	Relaxed int       // controllers that relaxed the terminal constraint
}

// periodRecords lends Run and RunStatic n zeroed period records whose
// T90 rows have one entry per application. The records and rows live in
// storage the testbed grows to the longest run so far and reuses on every
// call.
func (tb *Testbed) periodRecords(n int) []PeriodRecord {
	apps := len(tb.Apps)
	if cap(tb.records) < n {
		tb.records = make([]PeriodRecord, n)
		tb.t90 = make([]float64, n*apps)
	}
	recs := tb.records[:n]
	for k := range recs {
		recs[k] = PeriodRecord{T90: tb.t90[k*apps : (k+1)*apps : (k+1)*apps]}
	}
	return recs
}

// Run executes the control loop for the given duration (seconds) and
// returns one record per control period. Times are relative to the start
// of the loop (the identification phase consumed simulator time already).
// The optional hook runs at the start of every period (workload steps,
// set point changes) and receives the relative time.
//
// The records and their T90 rows are a view into storage the testbed
// reuses, valid until the next Run or RunStatic; callers that keep them
// longer must copy them, and none may write them. So a warmed period
// allocates nothing.
//
//vdc:hotpath fig2/response-time
func (tb *Testbed) Run(duration float64, hook func(period int, now float64)) ([]PeriodRecord, error) {
	records := tb.periodRecords(int(duration / tb.Cfg.Period))
	tk := tb.tracer.Track("testbed")
	t0 := tb.Sim.Now()
	for k := range records {
		if hook != nil {
			hook(k, tb.Sim.Now()-t0)
		}
		// The period index counts across Run calls, so stepping one period
		// at a time (serve) injects the same fault schedule, invokes the
		// optimizer at the same cadence and reports the same facts as one
		// long run.
		p := tb.periodCount
		tb.periodCount++
		tb.faults.SetStep(p)
		budget := tb.stepBudget
		if tb.faults.BudgetExhausted(p) {
			// Inject exhaustion by draining under a one-event budget: the
			// abort travels the real kernel trip path, not a synthetic error.
			budget = devs.Budget{MaxEvents: 1}
		}
		stats, derr := tb.Sim.RunUntilBudget(tb.Sim.Now()+tb.Cfg.Period, budget)
		g := check.GuardObservation{MaxEvents: budget.MaxEvents, Events: stats.Events, MaxSameTime: budget.MaxSameTimeEvents,
			SameTime: stats.SameTime, Tripped: derr != nil, Aborted: derr != nil, Err: derr}
		if derr != nil {
			var be *devs.BudgetError
			//lint:ignore hotalloc the abort path: &be escapes into errors.As once, as the run ends
			g.Wall = errors.As(derr, &be) && be.Reason == devs.ReasonInterrupt
		}
		tb.probe.Emit(check.Event{Kind: check.EvGuard, Step: p, TimeSec: tb.Sim.Now(), Span: "testbed.period", Guard: g})
		if derr != nil {
			// Budget exhausted: fail the step bounded instead of hanging.
			// The records so far are the partial result; the caller's
			// breaker reacts to the typed abort.
			//lint:ignore hotalloc the abort path: one StepAbort ends the run
			return records[:k], &guard.StepAbort{Period: p, Wall: g.Wall, Err: derr}
		}
		psp := tk.Start("testbed.period").Int("period", k)
		now := tb.Sim.Now()
		rec := &records[k]
		rec.Time = now - t0
		for i, ctl := range tb.Controllers {
			res, err := ctl.Step()
			if err != nil {
				psp.End()
				return nil, err
			}
			rec.T90[i] = res.T90
			if res.TerminalRelaxed {
				rec.Relaxed++
			}
			for j, d := range res.Allocations {
				tb.vms[i][j].Demand = d
			}
			tb.probe.Emit(check.Event{Kind: check.EvControl, Step: p, TimeSec: now, Control: check.ControlObservation{
				App: tb.Apps[i].Name, Index: i,
				Held: res.Held, Dropped: res.Dropped, HeldStreak: res.HeldStreak,
				HoldWindow: ctl.HoldWindow(), OpenLoop: res.OpenLoop,
				T90: res.T90, Relaxed: res.TerminalRelaxed,
				Residual: res.Residual, HasResidual: res.HasResidual,
			}})
		}
		// Data-center level: consolidation on the long time scale.
		if tb.cons != nil && (p+1)%tb.consEvery == 0 {
			if err := tb.consolidate(p); err != nil {
				psp.End()
				return nil, err
			}
		}
		// Server-level arbitration: DVFS follows the aggregate demands,
		// and every tier is granted its demand times the server's scale,
		// which throttles it when the server is oversubscribed (the scale
		// is 1 whenever capacity suffices).
		for _, arb := range tb.Arbitrators {
			if arb.Server.State() != cluster.Active {
				continue
			}
			_, scale := arb.Throttle()
			for _, vm := range arb.Server.VMs() {
				if idx, ok := tb.vmIndex[vm.ID]; ok {
					tb.Apps[idx[0]].Tier(idx[1]).SetCapacity(vm.Demand * scale)
				}
			}
		}
		rec.PowerW = tb.DC.TotalPower()
		var solve mpc.SolveStats
		for _, ctl := range tb.Controllers {
			solve.Add(ctl.SolveStats())
		}
		psp.Float("power_w", rec.PowerW).Int("relaxed", rec.Relaxed).End()
		tb.energyJ += rec.PowerW * tb.Cfg.Period
		tb.probe.Emit(check.Event{
			Kind: check.EvStep, Step: p, TimeSec: tb.Sim.Now(), DC: tb.DC,
			PowerW: rec.PowerW, EnergyJ: tb.energyJ, HasPower: true, HasEnergy: true,
			Active: tb.DC.NumActive(), Solve: solve,
		})
	}
	return records, tb.probe.Err()
}
