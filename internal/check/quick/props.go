package quick

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"

	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/dcsim"
	"vdcpower/internal/mat"
	"vdcpower/internal/mpc"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/packing"
	"vdcpower/internal/queueing"
	"vdcpower/internal/trace"
	"vdcpower/internal/workload"
)

// Property is one metamorphic law: Check runs the law for a seed and
// returns a violation as an error. Runs is the suggested number of seeds
// per test run, scaled to the property's cost.
type Property struct {
	Name  string
	Check func(seed int64) error
	Runs  int
}

// Properties returns the registered metamorphic laws, each driving the
// real implementation. The inner fn-parameterized forms exist so tests
// can prove a deliberately broken implementation is caught.
func Properties() []Property {
	return []Property{
		{"packing/permutation-invariant", func(s int64) error {
			return minSlackPermutationInvariant(packing.MinimumSlack, s)
		}, 20},
		{"packing/not-worse-than-ffd", func(s int64) error {
			return minSlackNotWorseThanFFD(packing.MinimumSlack, s)
		}, 20},
		{"queueing/mva-time-scaling", func(s int64) error {
			return mvaTimeScaling(queueing.Solve, s)
		}, 20},
		{"queueing/mva-capacity-monotone", func(s int64) error {
			return mvaCapacityMonotone(queueing.Solve, s)
		}, 20},
		{"dcsim/fig6-serial-parallel", func(s int64) error {
			return fig6SerialParallel(dcsim.Fig6Sweep, s)
		}, 2},
		{"mpc/permutation-equivariant", func(s int64) error {
			return mpcPermutationEquivariant(realMPCCompute, s)
		}, 8},
		{"workload/csv-roundtrip", func(s int64) error {
			return csvRoundTrip((*workload.Trace).WriteCSV, s)
		}, 10},
		{"cluster/migration-conservation", func(s int64) error {
			return migrationConservation(randomMigration, s)
		}, 10},
		{"mpc/warm-start-equivalence", func(s int64) error {
			return mpcWarmStartEquivalence(realMPCSequence, s)
		}, 8},
		{"packing/pool-reuse-exact", func(s int64) error {
			return minSlackPoolReuseExact(packing.MinimumSlack, s)
		}, 20},
		{"obs/sketch-merge-commutative", func(s int64) error {
			return sketchMergeCommutative(realSketchMerge, s)
		}, 20},
		{"obs/sketch-merge-associative", func(s int64) error {
			return sketchMergeAssociative(realSketchMerge, s)
		}, 20},
		{"obs/sketch-merge-vs-single-stream", func(s int64) error {
			return sketchMergeVsSingleStream(realSketchObserve, realSketchMerge, s)
		}, 20},
		{"obs/scorecard-deterministic", func(s int64) error {
			return scorecardDeterministic(realScorecardBuild, s)
		}, 10},
		{"trace/replay-conserves-mass", func(s int64) error {
			return replayConservesMass(realReplay, s)
		}, 10},
		{"appsim/matches-mva", simulatorMatchesMVA, 10},
	}
}

// replayFn is the shape of the replay engine — a source wrapped in a
// replay — injectable for mutation tests.
type replayFn func(trace.Source, trace.ReplayConfig) trace.Source

// realReplay is the engine itself.
func realReplay(src trace.Source, cfg trace.ReplayConfig) trace.Source {
	return trace.NewStream(src, cfg)
}

// replayConservesMass: a distortion-free replay of a trace is a faithful
// copy of the trace itself — record i, in FromTrace's step-major order,
// is VM i%V at step i/V with the trace's own utilization there, and the
// replay ends after exactly V×S records. So it moves every record and
// every unit of the trace's utilization mass bit for bit; any dropped,
// duplicated, reordered, or rewritten record breaks the match.
func replayConservesMass(replay replayFn, seed int64) error {
	r := NewRand(seed)
	tr, err := workload.Generate(TraceConfig(r))
	if err != nil {
		return err
	}
	got := replay(trace.FromTrace(tr), trace.ReplayConfig{StepSeconds: tr.StepSeconds, Seed: seed})
	v, n := tr.NumVMs(), tr.NumVMs()*tr.NumSteps()
	for i := 0; i < n; i++ {
		g, err := got.Next()
		if err != nil {
			return fmt.Errorf("replay ended at record %d of %d: %v", i, n, err)
		}
		w := trace.Record{VM: tr.Names[i%v], Time: float64(i/v) * tr.StepSeconds, Util: tr.At(i%v, i/v)}
		if g != w {
			return fmt.Errorf("record %d: replay emitted %+v, trace has %+v", i, g, w)
		}
	}
	if _, err := got.Next(); err != io.EOF {
		return fmt.Errorf("replay read %v after the trace's %d records, want io.EOF", err, n)
	}
	return nil
}

// minSlackFn is the shape of Algorithm 1, injectable for mutation tests.
type minSlackFn func(*packing.Bin, []packing.Item, packing.VectorConstraint, packing.MinSlackConfig) packing.MinSlackResult

// packingInstance generates one bin-packing instance.
func packingInstance(seed int64) (*packing.Bin, []packing.Item, packing.VectorConstraint, packing.MinSlackConfig) {
	r := NewRand(seed)
	b := Bin(r)
	items := Items(r, 3+r.Intn(10))
	cons := packing.VectorConstraint{CPUHeadroom: uniform(r, 0, 0.2)}
	return b, items, cons, packing.DefaultMinSlackConfig()
}

// minSlackPermutationInvariant: the chosen set and slack do not depend on
// the order candidates are presented in (the algorithm sorts internally
// with a deterministic tie-break).
func minSlackPermutationInvariant(fn minSlackFn, seed int64) error {
	b, items, cons, cfg := packingInstance(seed)
	res1 := fn(b, items, cons, cfg)
	r := NewRand(seed + 1)
	shuffled := append([]packing.Item(nil), items...)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	res2 := fn(b, shuffled, cons, cfg)
	//lint:ignore floatcompare a deterministic algorithm must reproduce bit-identical slack under permutation
	if res1.Slack != res2.Slack {
		return fmt.Errorf("slack depends on input order: %v vs %v", res1.Slack, res2.Slack)
	}
	ids1, ids2 := idSet(res1.Chosen), idSet(res2.Chosen)
	if len(ids1) != len(ids2) {
		return fmt.Errorf("chosen set size depends on input order: %d vs %d", len(ids1), len(ids2))
	}
	for id := range ids1 {
		if !ids2[id] {
			return fmt.Errorf("chosen set depends on input order: %s only in one run", id)
		}
	}
	return nil
}

func idSet(items []packing.Item) map[string]bool {
	out := map[string]bool{}
	for _, it := range items {
		out[it.ID] = true
	}
	return out
}

// minSlackNotWorseThanFFD: Algorithm 1's first search path is greedy
// decreasing first-fit, so its slack can only beat FFD — unless the
// ε-optimal exit fired, which itself bounds the slack by ε.
func minSlackNotWorseThanFFD(fn minSlackFn, seed int64) error {
	b, items, cons, cfg := packingInstance(seed)
	res := fn(b, items, cons, cfg)
	bound := check.SingleBinFFDSlack(b, items, cons)
	if cfg.Epsilon > bound {
		bound = cfg.Epsilon
	}
	if res.Slack > bound+1e-9 {
		return fmt.Errorf("slack %v worse than FFD bound %v", res.Slack, bound)
	}
	return nil
}

// mvaFn is the shape of the exact MVA solver.
type mvaFn func(*queueing.Network, int) (queueing.Result, error)

// mvaTimeScaling: scaling every service demand and the think time by α
// scales response time by α and throughput by 1/α (time-unit invariance
// of the queueing network).
func mvaTimeScaling(solve mvaFn, seed int64) error {
	r := NewRand(seed)
	net := Network(r)
	n := 1 + r.Intn(30)
	alpha := uniform(r, 0.3, 3)
	r1, err := solve(net, n)
	if err != nil {
		return err
	}
	scaled := &queueing.Network{ThinkTime: alpha * net.ThinkTime, Demands: make([]float64, len(net.Demands))}
	for i, d := range net.Demands {
		scaled.Demands[i] = alpha * d
	}
	r2, err := solve(scaled, n)
	if err != nil {
		return err
	}
	if math.Abs(r2.ResponseTime-alpha*r1.ResponseTime) > 1e-9*(1+alpha*r1.ResponseTime) {
		return fmt.Errorf("response time does not scale: α=%v, %v vs %v", alpha, r1.ResponseTime, r2.ResponseTime)
	}
	if math.Abs(r2.Throughput-r1.Throughput/alpha) > 1e-9*(1+r1.Throughput/alpha) {
		return fmt.Errorf("throughput does not scale: α=%v, %v vs %v", alpha, r1.Throughput, r2.Throughput)
	}
	return nil
}

// mvaCapacityMonotone: granting a station more capacity (lower service
// demand) can only lower the total response time.
func mvaCapacityMonotone(solve mvaFn, seed int64) error {
	r := NewRand(seed)
	net := Network(r)
	n := 1 + r.Intn(30)
	r1, err := solve(net, n)
	if err != nil {
		return err
	}
	faster := &queueing.Network{ThinkTime: net.ThinkTime, Demands: append([]float64(nil), net.Demands...)}
	j := r.Intn(len(faster.Demands))
	faster.Demands[j] *= uniform(r, 0.4, 0.95)
	r2, err := solve(faster, n)
	if err != nil {
		return err
	}
	if r2.ResponseTime > r1.ResponseTime+1e-12 {
		return fmt.Errorf("more capacity at station %d raised response time %v → %v", j, r1.ResponseTime, r2.ResponseTime)
	}
	return nil
}

// fig6Fn is the shape of the parallel Fig. 6 sweep.
type fig6Fn func(*workload.Trace, []int, []func() optimizer.Consolidator, dcsim.SweepOptions) ([]dcsim.Fig6Point, error)

// fig6SerialParallel: the worker-pool sweep must agree bit-for-bit with
// the serial loop on any configuration, not just the paper's.
func fig6SerialParallel(par fig6Fn, seed int64) error {
	r := NewRand(seed)
	tr, err := workload.Generate(workload.GenConfig{NumVMs: 60, Days: 1, StepsPerHour: 2, Seed: r.Int63()})
	if err != nil {
		return err
	}
	sizes := []int{10 + r.Intn(20), 35 + r.Intn(25)}
	policies := []func() optimizer.Consolidator{
		func() optimizer.Consolidator { return optimizer.NewIPAC() },
		func() optimizer.Consolidator { return optimizer.NewPMapper() },
	}
	serial, err := dcsim.Fig6(tr, sizes, policies)
	if err != nil {
		return err
	}
	parallel, err := par(tr, sizes, policies, dcsim.SweepOptions{Workers: 1 + r.Intn(3)})
	if err != nil {
		return err
	}
	if len(serial) != len(parallel) {
		return fmt.Errorf("point counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].NumVMs != parallel[i].NumVMs {
			return fmt.Errorf("point %d sizes differ: %d vs %d", i, serial[i].NumVMs, parallel[i].NumVMs)
		}
		if len(serial[i].PerVMWh) != len(parallel[i].PerVMWh) {
			return fmt.Errorf("point %d policy counts differ", i)
		}
		for name, wh := range serial[i].PerVMWh {
			pwh, ok := parallel[i].PerVMWh[name]
			if !ok {
				return fmt.Errorf("point %d: policy %s missing from parallel run", i, name)
			}
			//lint:ignore floatcompare the sweeps run identical deterministic code and must agree bit-for-bit
			if wh != pwh {
				return fmt.Errorf("point %d policy %s diverges: serial %v, parallel %v", i, name, wh, pwh)
			}
		}
	}
	return nil
}

// mpcFn is the shape of one controller solve, injectable for mutation
// tests: it returns the first move Δc(k).
type mpcFn func(cfg mpc.Config, tPast []float64, cPast []mat.Vec) (mat.Vec, error)

func realMPCCompute(cfg mpc.Config, tPast []float64, cPast []mat.Vec) (mat.Vec, error) {
	ctrl, err := mpc.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := ctrl.Compute(tPast, cPast)
	if err != nil {
		return nil, err
	}
	// Delta is a view into the controller's reused buffers; the
	// controller outlives this call only through the returned vector.
	return res.Delta.Clone(), nil
}

// mpcPermutationEquivariant: relabeling the controller's input channels
// (tiers) permutes the computed move the same way — the optimization has
// no hidden preference for channel order. The control penalty R makes the
// program strictly convex, so the minimizer is unique and the comparison
// is tolerance-tight.
func mpcPermutationEquivariant(compute mpcFn, seed int64) error {
	r := NewRand(seed)
	m := 2 + r.Intn(2)
	model := ARXModel(r, m)
	cfg := MPCConfig(r, model)

	tPast := []float64{uniform(r, 0.5, 2.5), uniform(r, 0.5, 2.5)}
	cPast := make([]mat.Vec, model.Nb)
	for j := range cPast {
		cPast[j] = make(mat.Vec, m)
		for i := 0; i < m; i++ {
			cPast[j][i] = uniform(r, cfg.CMin[i]+0.1, cfg.CMax[i]-0.5)
		}
	}
	d1, err := compute(cfg, tPast, cPast)
	if err != nil {
		return err
	}

	p := r.Perm(m)
	permuted := cfg
	pm := *model
	pm.B = make([]mat.Vec, len(model.B))
	for j := range model.B {
		pm.B[j] = permuteVec(model.B[j], p)
	}
	permuted.Model = &pm
	permuted.R = permuteVec(cfg.R, p)
	permuted.CMin = permuteVec(cfg.CMin, p)
	permuted.CMax = permuteVec(cfg.CMax, p)
	cPast2 := make([]mat.Vec, len(cPast))
	for j := range cPast {
		cPast2[j] = permuteVec(cPast[j], p)
	}
	d2, err := compute(permuted, tPast, cPast2)
	if err != nil {
		return err
	}
	for i := 0; i < m; i++ {
		want := d1[p[i]]
		if math.Abs(d2[i]-want) > 1e-6*(1+math.Abs(want)) {
			return fmt.Errorf("channel %d (originally %d): Δ %v, want %v", i, p[i], d2[i], want)
		}
	}
	return nil
}

// permuteVec returns w with w[i] = v[p[i]].
func permuteVec(v mat.Vec, p []int) mat.Vec {
	w := make(mat.Vec, len(v))
	for i := range w {
		w[i] = v[p[i]]
	}
	return w
}

// traceWriteFn is the shape of the CSV serializer.
type traceWriteFn func(*workload.Trace, io.Writer) error

// csvRoundTrip: one write/read cycle reproduces the trace up to the
// serializer's 6-significant-digit quantization, and a second cycle is
// bit-exact (quantization is idempotent).
func csvRoundTrip(write traceWriteFn, seed int64) error {
	r := NewRand(seed)
	tr, err := workload.Generate(TraceConfig(r))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := write(tr, &buf); err != nil {
		return err
	}
	rt, err := workload.ReadCSV(&buf)
	if err != nil {
		return err
	}
	if rt.NumVMs() != tr.NumVMs() || rt.NumSteps() != tr.NumSteps() {
		return fmt.Errorf("round-trip changed the shape %d×%d → %d×%d",
			tr.NumVMs(), tr.NumSteps(), rt.NumVMs(), rt.NumSteps())
	}
	for i := 0; i < tr.NumVMs(); i++ {
		if rt.Names[i] != tr.Names[i] || rt.Sectors[i] != tr.Sectors[i] {
			return fmt.Errorf("round-trip changed metadata of VM %d", i)
		}
		for k := 0; k < tr.NumSteps(); k++ {
			if math.Abs(rt.At(i, k)-tr.At(i, k)) > 1e-5 {
				return fmt.Errorf("sample (%d,%d) drifted beyond quantization: %v → %v",
					i, k, tr.At(i, k), rt.At(i, k))
			}
		}
	}
	buf.Reset()
	if err := write(rt, &buf); err != nil {
		return err
	}
	rt2, err := workload.ReadCSV(&buf)
	if err != nil {
		return err
	}
	for i := 0; i < rt.NumVMs(); i++ {
		for k := 0; k < rt.NumSteps(); k++ {
			//lint:ignore floatcompare the second cycle re-serializes already-quantized values and must be lossless
			if rt2.At(i, k) != rt.At(i, k) {
				return fmt.Errorf("second round-trip not idempotent at (%d,%d): %v → %v",
					i, k, rt.At(i, k), rt2.At(i, k))
			}
		}
	}
	return nil
}

// mpcSequenceFn runs one controller over a sequence of periods and
// returns the move of each, injectable for mutation tests. Unlike mpcFn
// it keeps the controller (and hence its warm-start state and reused
// buffers) alive across the whole sequence.
type mpcSequenceFn func(cfg mpc.Config, tHists [][]float64, cHists [][]mat.Vec) ([]mat.Vec, error)

func realMPCSequence(cfg mpc.Config, tHists [][]float64, cHists [][]mat.Vec) ([]mat.Vec, error) {
	ctrl, err := mpc.New(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]mat.Vec, len(tHists))
	for k := range tHists {
		res, err := ctrl.Compute(tHists[k], cHists[k])
		if err != nil {
			return nil, err
		}
		out[k] = res.Delta.Clone()
	}
	return out, nil
}

// mpcWarmStartEquivalence: a controller that warm-starts each QP from
// the previous period's active set produces the same moves as one that
// solves every period cold (DESIGN §12). R > 0 makes each program
// strictly convex, so the minimizer is unique and the paths agree to
// solver round-off.
func mpcWarmStartEquivalence(compute mpcSequenceFn, seed int64) error {
	r := NewRand(seed)
	m := 2 + r.Intn(2)
	model := ARXModel(r, m)
	cfg := MPCConfig(r, model)

	const periods = 6
	tHists := make([][]float64, periods)
	cHists := make([][]mat.Vec, periods)
	for k := range tHists {
		tHists[k] = []float64{uniform(r, 0.5, 2.5), uniform(r, 0.5, 2.5)}
		cHists[k] = make([]mat.Vec, model.Nb)
		for j := range cHists[k] {
			cHists[k][j] = make(mat.Vec, m)
			for i := 0; i < m; i++ {
				cHists[k][j][i] = uniform(r, cfg.CMin[i]+0.1, cfg.CMax[i]-0.5)
			}
		}
	}
	warm, err := compute(cfg, tHists, cHists)
	if err != nil {
		return err
	}
	cold := cfg
	cold.DisableWarmStart = true
	want, err := compute(cold, tHists, cHists)
	if err != nil {
		return err
	}
	for k := range want {
		for i := range want[k] {
			if math.Abs(warm[k][i]-want[k][i]) > 1e-8*(1+math.Abs(want[k][i])) {
				return fmt.Errorf("period %d channel %d: warm Δ %v, cold Δ %v",
					k, i, warm[k][i], want[k][i])
			}
		}
	}
	return nil
}

// minSlackPoolReuseExact: running Algorithm 1 through a node pool that
// was just dirtied by a different instance returns exactly the result of
// the allocating form — the pool is an allocation strategy, never an
// answer change (DESIGN §12).
func minSlackPoolReuseExact(fn minSlackFn, seed int64) error {
	b, items, cons, cfg := packingInstance(seed)
	plain := fn(b, items, cons, cfg)

	pooled := cfg
	pooled.Pool = packing.NewPool()
	bDirty, dirty, consDirty, _ := packingInstance(seed + 7919)
	fn(bDirty, dirty, consDirty, pooled) // dirty the pool's buffers first
	res := fn(b, items, cons, pooled)

	//lint:ignore floatcompare the pooled search must be exactly the allocating search
	if res.Slack != plain.Slack || res.Widened != plain.Widened ||
		res.Exhausted != plain.Exhausted || res.Nodes != plain.Nodes {
		return fmt.Errorf("pooled outcome (s=%v w=%v e=%v n=%d) differs from plain (s=%v w=%v e=%v n=%d)",
			res.Slack, res.Widened, res.Exhausted, res.Nodes,
			plain.Slack, plain.Widened, plain.Exhausted, plain.Nodes)
	}
	if len(res.Chosen) != len(plain.Chosen) {
		return fmt.Errorf("pooled chose %d items, plain %d", len(res.Chosen), len(plain.Chosen))
	}
	for i := range plain.Chosen {
		if res.Chosen[i] != plain.Chosen[i] {
			return fmt.Errorf("pooled item %d = %+v, plain %+v", i, res.Chosen[i], plain.Chosen[i])
		}
	}
	return nil
}

// migrateFn is one step of a random placement walk, injectable so tests
// can prove the checker catches a walk that loses VMs.
type migrateFn func(r *rand.Rand, dc *cluster.DataCenter, vms []*cluster.VM) error

// admits reports whether s can host v on top of its VMs, by CPU at
// maximum frequency and by memory.
func admits(s *cluster.Server, v *cluster.VM) bool {
	return s.TotalDemand()+v.Demand <= s.Spec.Capacity()+1e-9 && s.TotalMemory()+v.MemoryGB <= s.Spec.MemoryGB+1e-9
}

// randomMigration moves one random VM to one random admissible server.
func randomMigration(r *rand.Rand, dc *cluster.DataCenter, vms []*cluster.VM) error {
	v := vms[r.Intn(len(vms))]
	target := dc.Servers[r.Intn(len(dc.Servers))]
	if dc.HostOf(v.ID) == target || target.Cordoned() || !admits(target, v) {
		return nil // inadmissible: skip this step
	}
	_, err := dc.Migrate(v, target)
	return err
}

// migrationConservation: an arbitrary admissible migration/sleep walk
// preserves the VM population, the host index, per-server memory
// capacity, and the P-state discipline — verified by the same invariant
// registry the simulators run under -check.
func migrationConservation(step migrateFn, seed int64) error {
	r := NewRand(seed)
	servers := Fleet(r, 6)
	dc, err := cluster.NewDataCenter(servers)
	if err != nil {
		return err
	}
	vms := VMs(r, 15)
	for _, v := range vms {
		placed := false
		for try := 0; try < 100 && !placed; try++ {
			s := servers[r.Intn(len(servers))]
			if admits(s, v) {
				if err := dc.Place(v, s); err != nil {
					return err
				}
				placed = true
			}
		}
		if !placed {
			return fmt.Errorf("could not place %s on any server", v.ID)
		}
	}
	c := check.New(check.ClusterInvariants()...)
	c.Observe(check.Event{Kind: check.EvInit, Step: -1, DC: dc})
	for k := 0; k < 40; k++ {
		if err := step(r, dc, vms); err != nil {
			return err
		}
		if r.Intn(4) == 0 {
			dc.SleepIdle()
		}
		c.Observe(check.Event{Kind: check.EvStep, Step: k, DC: dc})
	}
	return c.Err()
}
