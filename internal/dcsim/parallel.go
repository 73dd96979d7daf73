package dcsim

import (
	"fmt"
	"runtime"
	"sync"

	"vdcpower/internal/fault"
	"vdcpower/internal/obs"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/probe"
	"vdcpower/internal/telemetry"
	"vdcpower/internal/workload"
)

// SweepOptions tunes Fig6Sweep: the worker count and what each run
// records.
type SweepOptions struct {
	// Workers is the pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Tracer, when non-nil, gives each worker its own span track
	// ("worker-00", "worker-01", ...) recording one "dcsim.job" span per
	// run with the run's internal spans nested inside; each job is
	// rebased onto the end of the worker's previous job so the track's
	// timeline advances monotonically even though every run restarts its
	// own clock at zero. Which worker executes which job reflects real
	// scheduling, so parallel sweep traces are not byte-reproducible
	// across runs — single-run serial traces are.
	Tracer *telemetry.Tracer
	// FaultProfile, when non-nil, injects the same fault profile into
	// every run. Each job gets its own Injector (injectors are stateful:
	// stuck sensors, attempt counters), so runs stay isolated and each
	// remains individually reproducible.
	FaultProfile *fault.Profile
	// Obs, when non-nil, aggregates every run's health scorecard: each
	// job observes into its own fresh scorecard (built from Obs.Config(),
	// so the SLO geometry matches) and the per-job scorecards are merged
	// into Obs in deterministic job order after the sweep completes —
	// scheduling cannot perturb the merged result because Merge is
	// commutative and the fold order is fixed anyway.
	Obs *obs.Scorecard
}

// Fig6Sweep computes the same sweep as Fig6 but fans the independent
// (size, policy) runs out over a worker pool — each run is deterministic
// and isolated, so the results are identical to the serial sweep while
// the wall-clock drops by roughly the core count. It optionally records
// per-worker span tracks, injects faults and aggregates scorecards.
func Fig6Sweep(trace *workload.Trace, sizes []int, policies []func() optimizer.Consolidator, opt SweepOptions) ([]Fig6Point, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type job struct {
		sizeIdx, polIdx int
	}
	type outcome struct {
		job
		name  string
		perVM float64
		sc    *obs.Scorecard
		err   error
	}
	jobs := make(chan job)
	results := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		tk := opt.Tracer.Track(fmt.Sprintf("worker-%02d", w))
		go func() {
			defer wg.Done()
			for j := range jobs {
				tk.Rebase() // runs reset their clock; keep the track monotonic
				cons := policies[j.polIdx]()
				cfg := DefaultConfig(trace, sizes[j.sizeIdx], cons)
				cfg.Telemetry = tk
				if opt.FaultProfile != nil {
					cfg.Faults = fault.New(*opt.FaultProfile)
				}
				var sc *obs.Scorecard
				if opt.Obs != nil {
					jc := opt.Obs.Config()
					jc.Label = fmt.Sprintf("%s/%d", cons.Name(), sizes[j.sizeIdx])
					sc = obs.New(jc)
				}
				cfg.Probe = probe.New(probe.Scorecard(sc))
				sp := tk.Start("dcsim.job").Int("vms", sizes[j.sizeIdx]).Str("policy", cons.Name())
				res, err := Run(cfg)
				sp.Float("per_vm_wh", res.EnergyPerVMWh).Bool("failed", err != nil).End()
				results <- outcome{job: j, name: cons.Name(), perVM: res.EnergyPerVMWh, sc: sc, err: err}
			}
		}()
	}
	go func() {
		for si := range sizes {
			for pi := range policies {
				jobs <- job{sizeIdx: si, polIdx: pi}
			}
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	points := make([]Fig6Point, len(sizes))
	for i, n := range sizes {
		points[i] = Fig6Point{NumVMs: n, PerVMWh: map[string]float64{}}
	}
	var firstErr error
	cards := make([]*obs.Scorecard, len(sizes)*len(policies))
	for out := range results {
		if out.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("dcsim: size %d policy %d: %w", sizes[out.sizeIdx], out.polIdx, out.err)
			continue
		}
		if out.err == nil {
			points[out.sizeIdx].PerVMWh[out.name] = out.perVM
			cards[out.sizeIdx*len(policies)+out.polIdx] = out.sc
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	// Fold the per-job scorecards in fixed job order so the aggregate —
	// including the audit ring's record sequence — is independent of
	// which worker finished first.
	if opt.Obs != nil {
		for _, sc := range cards {
			if sc == nil {
				continue
			}
			if err := opt.Obs.Merge(sc); err != nil {
				return nil, fmt.Errorf("dcsim: merging sweep scorecards: %w", err)
			}
		}
	}
	return points, nil
}
