package bench

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"

	"vdcpower/internal/appsim"
	"vdcpower/internal/dcsim"
	"vdcpower/internal/devs"
	"vdcpower/internal/fault"
	"vdcpower/internal/guard"
	"vdcpower/internal/lint"
	"vdcpower/internal/mat"
	"vdcpower/internal/mpc"
	"vdcpower/internal/obs"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/packing"
	"vdcpower/internal/probe"
	"vdcpower/internal/stats"
	"vdcpower/internal/sysid"
	"vdcpower/internal/telemetry"
	"vdcpower/internal/testbed"
	"vdcpower/internal/trace"
)

// Default builds the full scenario registry: the paper's figures
// (Section VII), the DESIGN.md ablations, the telemetry-overhead pair,
// the chaos profile and the vdclint pass. The registry is rebuilt per
// call — scenarios are stateless closures, so this is cheap and keeps
// callers isolated.
func Default() *Registry {
	r := NewRegistry()
	r.mustRegister(&Scenario{
		Name: "fig2/response-time",
		Doc:  "Figure 2: all applications held at the 1000 ms set point",
		Run:  runFig2,
	})
	r.mustRegister(&Scenario{
		Name: "fig3/surge",
		Doc:  "Figure 3: workload surge — recovery error and cluster power rise",
		Run:  runFig3,
	})
	r.mustRegister(&Scenario{
		Name: "fig4/concurrency-sweep",
		Doc:  "Figure 4: set-point tracking across unidentified concurrency levels",
		Run:  runFig4,
	})
	r.mustRegister(&Scenario{
		Name: "fig5/setpoint-sweep",
		Doc:  "Figure 5: tracking across set points",
		Run:  runFig5,
	})
	r.mustRegister(&Scenario{
		Name:    "fig6/energy-per-vm",
		Doc:     "Figure 6: IPAC vs pMapper energy per VM across data-center sizes",
		Prepare: prepareTrace,
		Run:     runFig6,
	})
	r.mustRegister(&Scenario{
		Name:    "fig6/telemetry-off",
		Doc:     "one Fig. 6 IPAC run with tracing disabled (nil track)",
		Prepare: prepareTrace,
		Run:     runTelemetryOff,
	})
	r.mustRegister(&Scenario{
		Name:    "fig6/telemetry-on",
		Doc:     "the same run with a span track recording every pass",
		Prepare: prepareTrace,
		Run:     runTelemetryOn,
	})
	r.mustRegister(&Scenario{
		Name:    "fig6/obs-on",
		Doc:     "the same run with a controller-health scorecard observing every step",
		Prepare: prepareTrace,
		Run:     runObsOn,
	})
	r.mustRegister(&Scenario{
		Name:    "fig6/chaos",
		Doc:     "the same run degraded under the deterministic chaos profile",
		Prepare: prepareTrace,
		Run:     runChaos,
	})
	r.mustRegister(&Scenario{
		Name:    "ablation/dvfs",
		Doc:     "ablation A: DVFS contribution to IPAC's saving",
		Prepare: prepareTrace,
		Run:     runAblationDVFS,
	})
	r.mustRegister(&Scenario{
		Name:    "ablation/watchdog",
		Doc:     "ablation D: overload steps avoided by the on-demand reliever",
		Prepare: prepareTrace,
		Run:     runAblationWatchdog,
	})
	r.mustRegister(&Scenario{
		Name:    "ablation/migration-cost",
		Doc:     "ablation C: migrations avoided by a bandwidth-priced cost policy",
		Prepare: prepareTrace,
		Run:     runAblationMigrationCost,
	})
	r.mustRegister(&Scenario{
		Name: "ablation/economic-mpc",
		Doc:  "ablation E: pure-tracking MPC cost vs the level-penalty extension",
		Run:  runAblationEconomicMPC,
	})
	r.mustRegister(&Scenario{
		Name: "mpc/solve",
		Doc:  "100 closed-loop MPC periods (Eq. 2 solve per period)",
		Run:  runMPCSolve,
	})
	r.mustRegister(&Scenario{
		Name: "packing/minslack",
		Doc:  "Minimum Slack branch-and-bound vs FFD on the awkward fixture",
		Run:  runPackingMinSlack,
	})
	r.mustRegister(&Scenario{
		Name: "packing/ffd",
		Doc:  "First Fit Decreasing over a 200-item seeded random instance",
		Run:  runPackingFFD,
	})
	r.mustRegister(&Scenario{
		Name: "lint/module",
		Doc:  "vdclint: load, type-check and analyze packages from source",
		Run:  runLintModule,
	})
	r.mustRegister(&Scenario{
		Name:    "trace/ingest",
		Doc:     "stream-decode and grid-resample the fabricated Google-usage corpus",
		Prepare: prepareReplayCorpus,
		Run:     runTraceIngest,
	})
	r.mustRegister(&Scenario{
		Name:    "trace/replay",
		Doc:     "the same corpus replayed through a distortion pipeline into a workload trace",
		Prepare: prepareReplayCorpus,
		Run:     runTraceReplay,
	})
	r.mustRegister(&Scenario{
		Name: "guard/wedge",
		Doc:  "bounded drains over a PS queue under submit/actuation churn (the wedge shape of DESIGN §14)",
		Run:  runGuardWedge,
	})
	return r
}

// prepareTrace warms the shared Fig. 6 trace fixture so trace
// generation never lands in a timed section.
func prepareTrace(e *Env) error {
	_, err := e.Trace()
	return err
}

// setpointAbsErr folds |mean - sp| across app rows into a
// milliseconds-scaled mean absolute error.
func setpointAbsErr(rows []testbed.AppStat, sp float64) float64 {
	sum := 0.0
	for _, r := range rows {
		sum += math.Abs(r.Mean - sp)
	}
	return 1000 * sum / float64(len(rows))
}

func runFig2(e *Env) (Metrics, error) {
	rows, err := testbed.Fig2(e.TestbedConfig())
	if err != nil {
		return nil, err
	}
	return Metrics{"ms-mean-abs-err": setpointAbsErr(rows, 1.0)}, nil
}

func runFig3(e *Env) (Metrics, error) {
	res, err := testbed.Fig3(e.TestbedConfig())
	if err != nil {
		return nil, err
	}
	// Recovery error: distance from the set point late in the surge.
	var late []float64
	for _, p := range res.ResponseTime {
		if p.Time >= 900 && p.Time < 1200 {
			late = append(late, p.Value)
		}
	}
	window := func(lo, hi float64) []float64 {
		var xs []float64
		for _, p := range res.Power {
			if p.Time >= lo && p.Time < hi {
				xs = append(xs, p.Value)
			}
		}
		return xs
	}
	rise := stats.Mean(window(800, 1200)) - stats.Mean(window(300, 600))
	return Metrics{
		"ms-recovery-err":    1000 * math.Abs(stats.Mean(late)-1.0),
		"surge-power-rise-w": rise,
	}, nil
}

func runFig4(e *Env) (Metrics, error) {
	rows, err := testbed.Fig4(e.TestbedConfig(), e.ConcurrencyLevels())
	if err != nil {
		return nil, err
	}
	return Metrics{"ms-mean-abs-err": setpointAbsErr(rows, 1.0)}, nil
}

func runFig5(e *Env) (Metrics, error) {
	sps := e.Setpoints()
	rows, err := testbed.Fig5(e.TestbedConfig(), sps)
	if err != nil {
		return nil, err
	}
	sum := 0.0
	for i, r := range rows {
		sum += math.Abs(r.Mean - sps[i])
	}
	return Metrics{"ms-mean-abs-err": 1000 * sum / float64(len(sps))}, nil
}

func runFig6(e *Env) (Metrics, error) {
	tr, err := e.Trace()
	if err != nil {
		return nil, err
	}
	points, err := dcsim.Fig6(tr, e.Fig6Sizes(), []func() optimizer.Consolidator{
		func() optimizer.Consolidator { return optimizer.NewIPAC() },
		func() optimizer.Consolidator { return optimizer.NewPMapper() },
	})
	if err != nil {
		return nil, err
	}
	saving := 0.0
	for _, p := range points {
		saving += 1 - p.PerVMWh["IPAC"]/p.PerVMWh["pMapper"]
	}
	return Metrics{"saving-pct": 100 * saving / float64(len(points))}, nil
}

// fig6Run is the single-run unit shared by the telemetry pair, the
// chaos scenario, and the scorecard-overhead scenario.
func fig6Run(e *Env, tk *telemetry.Track, inj *fault.Injector, sc *obs.Scorecard) (dcsim.Result, dcsim.Config, error) {
	tr, err := e.Trace()
	if err != nil {
		return dcsim.Result{}, dcsim.Config{}, err
	}
	cfg := dcsim.DefaultConfig(tr, e.DCVMs(), optimizer.NewIPAC())
	cfg.Telemetry = tk
	cfg.Faults = inj
	if sc != nil {
		cfg.Probe = probe.New(sc)
	}
	res, err := dcsim.Run(cfg)
	return res, cfg, err
}

func runTelemetryOff(e *Env) (Metrics, error) {
	res, cfg, err := fig6Run(e, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	return Metrics{
		"energy-per-vm-wh": res.EnergyPerVMWh,
		"optimizer-passes": float64(res.Steps / cfg.OptimizeEverySteps),
	}, nil
}

func runTelemetryOn(e *Env) (Metrics, error) {
	tracer := telemetry.New(nil, 0)
	res, cfg, err := fig6Run(e, tracer.Track("main"), nil, nil)
	if err != nil {
		return nil, err
	}
	return Metrics{
		"energy-per-vm-wh": res.EnergyPerVMWh,
		"optimizer-passes": float64(res.Steps / cfg.OptimizeEverySteps),
		"spans":            float64(len(tracer.Snapshot())),
		"spans-dropped":    float64(tracer.Dropped()),
	}, nil
}

// runObsOn is the scorecard half of the observability-overhead pair:
// fig6/telemetry-off is the baseline, this run additionally streams
// every step's SLO event, power sample, and optimizer tally into a
// scorecard. The perf gate holding this scenario "unchanged" vs the
// baseline is the acceptance bound on observation cost.
func runObsOn(e *Env) (Metrics, error) {
	sc := obs.New(obs.Config{Label: "bench", SLOBudget: 0.05, FastWindow: 8, SlowWindow: 64})
	res, cfg, err := fig6Run(e, nil, nil, sc)
	if err != nil {
		return nil, err
	}
	rep := sc.Report()
	return Metrics{
		"energy-per-vm-wh": res.EnergyPerVMWh,
		"optimizer-passes": float64(res.Steps / cfg.OptimizeEverySteps),
		"slo-bad-steps":    float64(rep.SLO.Bad),
		"audit-records":    float64(len(rep.Audit.Records)),
	}, nil
}

func runChaos(e *Env) (Metrics, error) {
	res, _, err := fig6Run(e, nil, fault.New(e.ChaosProfile()), nil)
	if err != nil {
		return nil, err
	}
	return Metrics{
		"energy-per-vm-wh": res.EnergyPerVMWh,
		"faults-injected":  float64(res.FaultsInjected),
		"degraded-passes":  float64(res.DegradedPasses),
		"failed-moves":     float64(res.FailedMoves),
		"crashes":          float64(res.Crashes),
	}, nil
}

func runAblationDVFS(e *Env) (Metrics, error) {
	tr, err := e.Trace()
	if err != nil {
		return nil, err
	}
	with, err := dcsim.Run(dcsim.DefaultConfig(tr, e.DCVMs(), optimizer.NewIPAC()))
	if err != nil {
		return nil, err
	}
	without, err := dcsim.Run(dcsim.DefaultConfig(tr, e.DCVMs(), optimizer.WithoutDVFS{Inner: optimizer.NewIPAC()}))
	if err != nil {
		return nil, err
	}
	return Metrics{"dvfs-saving-pct": 100 * (1 - with.EnergyPerVMWh/without.EnergyPerVMWh)}, nil
}

func runAblationWatchdog(e *Env) (Metrics, error) {
	tr, err := e.Trace()
	if err != nil {
		return nil, err
	}
	plain, err := dcsim.Run(dcsim.DefaultConfig(tr, e.DCVMs(), optimizer.NewIPAC()))
	if err != nil {
		return nil, err
	}
	cfg := dcsim.DefaultConfig(tr, e.DCVMs(), optimizer.NewIPAC())
	cfg.WatchdogEverySteps = 1
	wd, err := dcsim.Run(cfg)
	if err != nil {
		return nil, err
	}
	return Metrics{
		"overload-steps-avoided": float64(plain.OverloadSteps - wd.OverloadSteps),
		"watchdog-moves":         float64(wd.WatchdogMoves),
	}, nil
}

func runAblationMigrationCost(e *Env) (Metrics, error) {
	tr, err := e.Trace()
	if err != nil {
		return nil, err
	}
	free, err := dcsim.Run(dcsim.DefaultConfig(tr, e.DCVMs(), optimizer.NewIPAC()))
	if err != nil {
		return nil, err
	}
	priced := optimizer.NewIPAC()
	priced.Policy = optimizer.BandwidthPriced{WattsPerGB: 15}
	pr, err := dcsim.Run(dcsim.DefaultConfig(tr, e.DCVMs(), priced))
	if err != nil {
		return nil, err
	}
	return Metrics{
		"migrations-avoided": float64(free.Migrations - pr.Migrations),
		"energy-cost-pct":    100 * (pr.EnergyPerVMWh/free.EnergyPerVMWh - 1),
	}, nil
}

// mpcModel is the identified two-input model the MPC scenarios solve
// against (the BenchmarkAblationEconomicMPC fixture).
func mpcModel() *sysid.Model {
	return &sysid.Model{
		Na: 1, Nb: 2, NumInputs: 2,
		A:     []float64{0.4},
		B:     []mat.Vec{{-0.5, -0.4}, {-0.15, -0.1}},
		Gamma: 3.0,
	}
}

// mpcRun closes the loop for 100 control periods from an
// over-provisioned start and returns the final total allocation.
func mpcRun(levelPenalty float64) (float64, error) {
	cfg := mpc.Config{
		Model: mpcModel(), P: 8, M: 2, Q: 1,
		R:           mat.Vec{0.1, 0.1},
		TrefPeriods: 2, Setpoint: 1.0,
		CMin: mat.Vec{0.1, 0.1}, CMax: mat.Vec{4, 4},
		LevelPenalty: levelPenalty,
	}
	ctl, err := mpc.New(cfg)
	if err != nil {
		return 0, err
	}
	tHist := []float64{0.3, 0.3}
	cur := mat.Vec{3, 3}
	// Rotating 3-slot allocation history: each period recycles the oldest
	// slot as the new head instead of prepending a fresh clone, so the
	// driver loop stays allocation-free and the benchmark times the solve,
	// not the harness (DESIGN §12). Values match the old prepend-and-
	// trim loop bit for bit (1*delta is exactly delta).
	cHist := []mat.Vec{cur.Clone(), cur.Clone(), cur.Clone()}
	for k := 0; k < 100; k++ {
		out, err := ctl.Compute(tHist, cHist)
		if err != nil {
			return 0, err
		}
		cur.AddScaled(1, out.Delta)
		head := cHist[len(cHist)-1]
		copy(cHist[1:], cHist)
		copy(head, cur)
		cHist[0] = head
		y := cfg.Model.Predict(tHist, cHist)
		tHist[1] = tHist[0]
		tHist[0] = y
	}
	return cur[0] + cur[1], nil
}

func runAblationEconomicMPC(_ *Env) (Metrics, error) {
	plain, err := mpcRun(0)
	if err != nil {
		return nil, err
	}
	econ, err := mpcRun(0.01)
	if err != nil {
		return nil, err
	}
	return Metrics{"ghz-saved": plain - econ}, nil
}

func runMPCSolve(_ *Env) (Metrics, error) {
	if _, err := mpcRun(0); err != nil {
		return nil, err
	}
	return Metrics{"solves": 100}, nil
}

func runPackingMinSlack(e *Env) (Metrics, error) {
	// Deterministic awkward sizes: FFD grabs the 8 first and strands
	// capacity; the optimal 12-GHz packing is 7+5 (plus small change).
	sizes := []float64{8, 7, 5, 4.5, 2.9, 1.3, 0.9, 0.6}
	items := make([]packing.Item, len(sizes))
	for i := range items {
		items[i] = packing.Item{ID: string(rune('a' + i)), CPU: sizes[i], Mem: 1}
	}
	cons := packing.VectorConstraint{}
	cfg := packing.DefaultMinSlackConfig()
	cfg.Epsilon = 0
	cfg.Pool = e.MinSlackPool() // session-shared arena: B&B is alloc-free once warm
	msBin := &packing.Bin{ID: "ms", CPUCap: 12, MemCap: 100}
	res := packing.MinimumSlack(msBin, items, cons, cfg)
	ffdBin := &packing.Bin{ID: "ffd", CPUCap: 12, MemCap: 100}
	packing.FirstFitDecreasing(items, []*packing.Bin{ffdBin}, cons)
	return Metrics{"slack-gain-ghz": ffdBin.Slack() - res.Slack}, nil
}

// ffdItemIDs and ffdBinIDs name packing/ffd's items and bins. They are
// formatted once: fmt caches its printers in a sync.Pool, which the race
// detector empties at random, so formatting per op would make the op's
// allocation count vary under -race.
var ffdItemIDs, ffdBinIDs = formatIDs("vm%03d", 200), formatIDs("s%02d", 60)

func formatIDs(format string, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf(format, i)
	}
	return ids
}

func runPackingFFD(_ *Env) (Metrics, error) {
	// A fresh seeded instance per op: generation is ~100x cheaper than
	// the packing pass it feeds, and the fixed seed keeps every op
	// identical.
	rng := rand.New(rand.NewSource(7))
	items := make([]packing.Item, len(ffdItemIDs))
	for i := range items {
		items[i] = packing.Item{
			ID:  ffdItemIDs[i],
			CPU: 0.5 + 2.5*rng.Float64(),
			Mem: 0.25 + 1.25*rng.Float64(),
		}
	}
	bins := make([]*packing.Bin, len(ffdBinIDs))
	for i := range bins {
		bins[i] = &packing.Bin{ID: ffdBinIDs[i], CPUCap: 12, MemCap: 16}
	}
	_, unplaced := packing.FirstFitDecreasing(items, bins, packing.VectorConstraint{})
	used := 0
	for _, b := range bins {
		if len(b.Items()) > 0 {
			used++
		}
	}
	return Metrics{"bins-used": float64(used), "unplaced": float64(len(unplaced))}, nil
}

func runLintModule(e *Env) (Metrics, error) {
	mod, err := lint.LoadModule(e.ModuleRoot())
	if err != nil {
		return nil, err
	}
	pkgs, err := mod.Load(e.LintPatterns()...)
	if err != nil {
		return nil, err
	}
	findings := mod.Analyze(pkgs, lint.Analyzers())
	if len(findings) != 0 {
		return nil, fmt.Errorf("bench: module is not lint-clean: %d finding(s), first: %s", len(findings), findings[0])
	}
	return Metrics{"packages": float64(len(pkgs))}, nil
}

// prepareReplayCorpus warms the shared fabricated corpus so corpus
// generation never lands in a timed section.
func prepareReplayCorpus(e *Env) error {
	_, err := e.ReplayCorpus()
	return err
}

// runTraceIngest times the raw-ingestion half of the replay engine:
// the streaming Google-usage decoder feeding the 15-minute resampler,
// pulled dry and counted. The corpus has gaps and empty fields, so the
// gap policy and skip paths are priced, not just the happy path.
func runTraceIngest(e *Env) (Metrics, error) {
	corpus, err := e.ReplayCorpus()
	if err != nil {
		return nil, err
	}
	src, err := trace.NewGoogleUsage(bytes.NewReader(corpus))
	if err != nil {
		return nil, err
	}
	grid, err := trace.NewGrid(src, trace.GridConfig{})
	if err != nil {
		return nil, err
	}
	n, mass := 0, 0.0
	for {
		rec, err := grid.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		n++
		mass += rec.Util
	}
	return Metrics{
		"records":   float64(n),
		"grid-vms":  float64(grid.NumVMs()),
		"grid-mass": mass,
	}, nil
}

// runTraceReplay times the full ingest→distort→assemble path: the same
// corpus replayed through a flash-crowd + time-warp pipeline into a
// rectangular workload trace — the dcsim -replay shape end to end.
func runTraceReplay(e *Env) (Metrics, error) {
	corpus, err := e.ReplayCorpus()
	if err != nil {
		return nil, err
	}
	src, err := trace.NewGoogleUsage(bytes.NewReader(corpus))
	if err != nil {
		return nil, err
	}
	grid, err := trace.NewGrid(src, trace.GridConfig{})
	if err != nil {
		return nil, err
	}
	st := trace.NewStream(grid, trace.ReplayConfig{
		StepSeconds: grid.StepSeconds(),
		Seed:        2010,
		Distortions: []trace.Distortion{
			trace.FlashCrowd{StartStep: 8, Steps: 12, Amplify: 1.6, VMFraction: 0.3},
			&trace.TimeWarp{MaxLagSteps: 4},
		},
	})
	tr, err := trace.Collect(st, trace.CollectConfig{StepSeconds: grid.StepSeconds(), SectorSalt: 2010})
	if err != nil {
		return nil, err
	}
	prov := st.Provenance()
	return Metrics{
		"records":   float64(prov.Records),
		"distorted": float64(prov.Distorted),
		"trace-vms": float64(len(tr.Names)),
	}, nil
}

// runGuardWedge tracks the cost of the bounded-execution path: a PS
// queue under heavy submit + SetCapacity churn (the actuation pattern
// that fed the wedge of DESIGN §14) drained period by period through
// RunUntilBudget under the default step budget. The budget never trips
// here — the scenario prices what a guarded healthy drain costs, so a
// regression in the budget bookkeeping (or in re-arming the queue's
// completion timer, which every Submit and SetCapacity does) shows up
// as a latency shift.
func runGuardWedge(e *Env) (Metrics, error) {
	sim := devs.NewSimulator()
	q := appsim.NewPSQueue(sim, 2.5)
	rng := rand.New(rand.NewSource(7))
	budget := guard.DefaultStepBudget().DevsBudget(nil)
	completed := 0
	events := 0
	for burst := 0; burst < 400; burst++ {
		for j := 0; j < 32; j++ {
			q.Submit(0.001+0.01*rng.Float64(), func() { completed++ })
			q.SetCapacity(0.5 + 4*rng.Float64())
		}
		st, err := sim.RunUntilBudget(sim.Now()+0.25, budget)
		if err != nil {
			return nil, err
		}
		events += st.Events
	}
	st, err := sim.RunUntilBudget(sim.Now()+1e6, budget)
	if err != nil {
		return nil, err
	}
	events += st.Events
	if pending := sim.Pending(); pending != 0 {
		return nil, fmt.Errorf("bench: %d events still pending after the final drain", pending)
	}
	return Metrics{
		"events":    float64(events),
		"completed": float64(completed),
	}, nil
}
