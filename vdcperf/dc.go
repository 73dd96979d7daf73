package main

import (
	"fmt"

	"vdcpower/internal/cluster"
	"vdcpower/internal/dcsim"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/stats"
	"vdcpower/internal/telemetry"
	"vdcpower/internal/workload"
)

// runDC runs dc-consolidate, one dcsim run per trace, replayed in turn
// like the testbed constructions. Each pass generates its trace from the
// trace's seed outside the timing, so that one trace at a time is in
// memory. An untraced reference run of the first trace with unwrapped
// IPAC comes first, and the timed passes over that trace must reproduce
// it step for step, so every run checks that the timing Consolidator
// leaves the simulation unchanged.
func runDC(r *run) error {
	seeds := unitSeeds(r.seed, r.size.units)
	var genS []float64
	generate := func(i int) (*workload.Trace, error) {
		t0 := r.clock()
		tr, err := workload.Generate(workload.GenConfig{NumVMs: r.size.dcVMs, Days: r.size.dcDays, StepsPerHour: 4, Seed: seeds[i]})
		genS = append(genS, r.clock()-t0)
		if err != nil {
			return nil, fmt.Errorf("generating trace %d: %w", i, err)
		}
		return tr, nil
	}
	tr, err := generate(0)
	if err != nil {
		return err
	}
	r.stepSec = tr.StepSeconds
	ref := r.dcPass(tr, seeds[0], optimizer.NewIPAC(), nil)
	r.refSteps = ref.stepMS

	var opt *optTally
	if r.traced() {
		opt = &optTally{}
	}
	err = r.replay(len(seeds), ref.hashes, func(p passSpec) (passOut, error) {
		tr, err := generate(p.index)
		if err != nil {
			return passOut{}, err
		}
		return r.dcPass(tr, seeds[p.index], nil, opt), nil
	})
	if err != nil {
		return err
	}
	if opt != nil {
		return r.dcLayers(opt, genS)
	}
	return nil
}

// optTally accumulates the optimizer's counts over the traced runs.
type optTally struct {
	passes, migrations, vetoed, nodes, widenings int
	allocs                                       uint64
	selfMS                                       []float64 // per step: step time minus pass time
}

// dcPass runs dcsim once on tr, with the seed that draws the VMs' peaks
// and memory. A nil cons runs IPAC behind a timing Consolidator; a
// non-nil tally makes it a traced run. The step hashes end with one over
// the result. A failed run is a failed operation.
func (r *run) dcPass(tr *workload.Trace, seed int64, cons optimizer.Consolidator, opt *optTally) passOut {
	t := &dcTimer{r: r, opt: opt, steps: tr.NumSteps()}
	if opt != nil {
		t.tk = r.tracer.Track("dcsim")
	}
	if cons == nil {
		cons = timedIPAC{IPAC: optimizer.NewIPAC(), t: t}
	}
	cfg := dcsim.DefaultConfig(tr, r.size.dcVMs, cons)
	cfg.Seed = seed
	cfg.OnStep = t.onStep
	t.begin()
	res, err := dcsim.Run(cfg)
	t.end()
	out := passOut{hashes: t.hashes, stepMS: t.stepMS, setupS: t.setupS, allocs: t.allocs}
	if !r.check(err == nil, "dcsim.Run: %v", err) {
		return out
	}
	out.hashes = append(out.hashes, hashFloats(res.TotalEnergyWh, float64(res.Migrations), float64(res.OverloadSteps)))
	out.out = outcome{
		energyWh: res.TotalEnergyWh,
		hours:    float64(res.Steps) * tr.StepSeconds / 3600,
		slots:    t.activeSteps,
		misses:   res.OverloadSteps,
	}
	return out
}

// timedIPAC is IPAC with each Consolidate call timed by a dcTimer. Name,
// UsesDVFS and SearchStats are IPAC's own, so dcsim sees the same policy.
type timedIPAC struct {
	*optimizer.IPAC
	t *dcTimer
}

func (c timedIPAC) Consolidate(dc *cluster.DataCenter) (optimizer.Report, error) {
	c.t.passStart(c.IPAC)
	rep, err := c.IPAC.Consolidate(dc)
	c.t.passEnd(c.IPAC, rep)
	return rep, err
}

// dcTimer times one dcsim run from outside: set-up up to the first
// optimizer pass or step, each step as the gap between OnStep callbacks,
// and each optimizer pass. On a traced run it also records spans and
// counts the optimizer's work.
type dcTimer struct {
	r     *run
	tk    *telemetry.Track
	opt   *optTally
	steps int

	start, last, passT0, passInStep float64
	inSetup                         bool
	m0, passM0                      uint64
	nodes0, wids0                   int
	runSp, setupSp, stepSp, passSp  *telemetry.Span

	setupS      float64
	stepMS      []float64
	hashes      []uint64
	allocs      uint64
	activeSteps int // (active server, step) pairs
}

func (t *dcTimer) begin() {
	t.runSp = t.tk.Start("dcsim.run")
	t.setupSp = t.tk.Start("dcsim.setup")
	t.start, t.inSetup = t.r.clock(), true
}

// endSetup closes the set-up at the first pass or step.
func (t *dcTimer) endSetup() {
	t.m0 = t.r.mallocs()
	now := t.r.clock()
	t.setupSp.End()
	t.setupS, t.last, t.inSetup = now-t.start, now, false
	t.stepSp = t.tk.Start("dcsim.step")
}

func (t *dcTimer) passStart(ipac *optimizer.IPAC) {
	if t.inSetup {
		t.endSetup()
	}
	if t.opt != nil {
		st := ipac.SearchStats()
		t.nodes0, t.wids0 = st.Nodes, st.Widenings
		t.passM0 = t.r.mallocs()
	}
	t.passSp = t.tk.Start("optimizer.pass")
	t.passT0 = t.r.clock()
}

func (t *dcTimer) passEnd(ipac *optimizer.IPAC, rep optimizer.Report) {
	t.passInStep += t.r.clock() - t.passT0
	t.passSp.End()
	if t.opt != nil {
		t.opt.allocs += t.r.mallocs() - t.passM0 - spanAllocs(t.tk, 1)
		st := ipac.SearchStats()
		t.opt.passes++
		t.opt.migrations += rep.Migrations
		t.opt.vetoed += rep.Vetoed
		t.opt.nodes += st.Nodes - t.nodes0
		t.opt.widenings += st.Widenings - t.wids0
	}
}

func (t *dcTimer) onStep(step int, powerW float64, active int, demandGHz float64) {
	if t.inSetup {
		t.endSetup()
	}
	now := t.r.clock()
	t.stepSp.End()
	t.stepMS = append(t.stepMS, 1000*(now-t.last))
	if t.opt != nil {
		t.opt.selfMS = append(t.opt.selfMS, 1000*(now-t.last-t.passInStep))
	}
	t.last, t.passInStep = now, 0
	t.activeSteps += active
	t.hashes = append(t.hashes, hashFloats(powerW, float64(active), demandGHz))
	if step < t.steps-1 {
		t.stepSp = t.tk.Start("dcsim.step")
	}
}

func (t *dcTimer) end() {
	t.allocs = t.r.mallocs() - t.m0
	t.runSp.End()
}

// dcLayers turns the traced dc-consolidate run into per-layer metrics.
func (r *run) dcLayers(opt *optTally, genS []float64) error {
	pass := spanSeconds(r.tracer.Snapshot(), "optimizer.pass")
	p50, err := quantile(pass, 0.5)
	if err != nil {
		return fmt.Errorf("optimizer pass p50: %w", err)
	}
	p90, err := quantile(pass, 0.9)
	if err != nil {
		return fmt.Errorf("optimizer pass p90: %w", err)
	}
	self, err := quantile(opt.selfMS, 0.5)
	if err != nil {
		return fmt.Errorf("dcsim step self time: %w", err)
	}
	r.layer["dcsim.step_self_ms"] = self
	r.layer["optimizer.pass_p50_ms"] = 1e3 * p50
	r.layer["optimizer.pass_p90_ms"] = 1e3 * p90
	r.layer["optimizer.migrations_per_pass"] = ratio(opt.migrations, opt.passes)
	r.layer["optimizer.vetoed_per_pass"] = ratio(opt.vetoed, opt.passes)
	r.layer["optimizer.allocs_per_pass"] = float64(opt.allocs) / float64(opt.passes)
	r.layer["packing.nodes_per_pass"] = ratio(opt.nodes, opt.passes)
	r.layer["packing.widenings_per_pass"] = ratio(opt.widenings, opt.passes)
	r.layer["packing.nodes_per_migration"] = ratio(opt.nodes, opt.migrations)
	r.layer["setup.dcsim_s"] = stats.Median(r.setups())
	r.layer["workload.generate_s"] = stats.Median(genS)
	return nil
}
