package quick

import (
	"io"
	"math/rand"
	"testing"

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

// TestProperties runs every registered metamorphic law over its seed
// budget against the real implementations.
func TestProperties(t *testing.T) {
	for _, p := range Properties() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			runs := p.Runs
			if testing.Short() && runs > 3 {
				runs = 3
			}
			for seed := int64(1); seed <= int64(runs); seed++ {
				if err := p.Check(seed); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func TestRegistryHasAtLeastSixProperties(t *testing.T) {
	props := Properties()
	if len(props) < 6 {
		t.Fatalf("registry has %d properties, acceptance floor is 6", len(props))
	}
	seen := map[string]bool{}
	for _, p := range props {
		if p.Name == "" || p.Check == nil || p.Runs < 1 {
			t.Fatalf("malformed property %+v", p)
		}
		if seen[p.Name] {
			t.Fatalf("duplicate property %q", p.Name)
		}
		seen[p.Name] = true
	}
}

// expectCaught asserts that some seed in [1, 40] makes the property fail
// for the given broken implementation.
func expectCaught(t *testing.T, what string, run func(seed int64) error) {
	t.Helper()
	for seed := int64(1); seed <= 40; seed++ {
		if err := run(seed); err != nil {
			t.Logf("%s caught at seed %d: %v", what, seed, err)
			return
		}
	}
	t.Fatalf("%s: no seed caught the broken implementation", what)
}

// Mutation tests: each law must catch a deliberately broken
// implementation, or it guards nothing.

func TestPermutationInvariantCatchesOrderDependence(t *testing.T) {
	// Broken chooser: greedy in presentation order, no sort — its output
	// depends on how the candidates happen to be listed.
	broken := func(b *packing.Bin, items []packing.Item, cons packing.VectorConstraint, cfg packing.MinSlackConfig) packing.MinSlackResult {
		var chosen []packing.Item
		slack := b.Slack()
		for _, it := range items {
			if it.CPU > slack {
				continue
			}
			next := append(chosen, it)
			if !cons.Fits(b, next) {
				continue
			}
			chosen = next
			slack -= it.CPU
		}
		return packing.MinSlackResult{Chosen: chosen, Slack: slack}
	}
	expectCaught(t, "order-dependent chooser", func(s int64) error {
		return minSlackPermutationInvariant(broken, s)
	})
}

func TestNotWorseThanFFDCatchesWeakSearch(t *testing.T) {
	// Broken search: packs nothing at all.
	broken := func(b *packing.Bin, items []packing.Item, cons packing.VectorConstraint, cfg packing.MinSlackConfig) packing.MinSlackResult {
		return packing.MinSlackResult{Slack: b.Slack()}
	}
	expectCaught(t, "empty-handed search", func(s int64) error {
		return minSlackNotWorseThanFFD(broken, s)
	})
}

func TestMVATimeScalingCatchesAffineOffset(t *testing.T) {
	// Broken solver: a constant measurement offset on the response time,
	// which breaks the linear time-unit scaling.
	broken := func(net *queueing.Network, n int) (queueing.Result, error) {
		res, err := queueing.Solve(net, n)
		res.ResponseTime += 0.01
		return res, err
	}
	expectCaught(t, "offset MVA solver", func(s int64) error {
		return mvaTimeScaling(broken, s)
	})
}

func TestMVACapacityMonotoneCatchesInvertedModel(t *testing.T) {
	// Broken solver: response time that grows as stations get faster.
	broken := func(net *queueing.Network, n int) (queueing.Result, error) {
		rt := 0.0
		for _, d := range net.Demands {
			rt += 1 / d
		}
		return queueing.Result{N: n, ResponseTime: rt, Throughput: 1}, nil
	}
	expectCaught(t, "inverted queueing model", func(s int64) error {
		return mvaCapacityMonotone(broken, s)
	})
}

func TestFig6SerialParallelCatchesDivergence(t *testing.T) {
	// Broken parallel sweep: one policy's result is perturbed, as a
	// nondeterministic scheduler would.
	broken := func(tr *workload.Trace, sizes []int, policies []func() optimizer.Consolidator, opt dcsim.SweepOptions) ([]dcsim.Fig6Point, error) {
		pts, err := dcsim.Fig6Sweep(tr, sizes, policies, opt)
		if err != nil {
			return nil, err
		}
		for name := range pts[0].PerVMWh {
			pts[0].PerVMWh[name] *= 1.001
			break
		}
		return pts, nil
	}
	// One seed suffices: the divergence is unconditional.
	if err := fig6SerialParallel(broken, 1); err == nil {
		t.Fatal("diverging parallel sweep not caught")
	}
}

func TestMPCEquivarianceCatchesChannelBias(t *testing.T) {
	// Broken controller: silently refuses to ever move channel 0 — a
	// hidden preference tied to channel order.
	broken := func(cfg mpc.Config, tPast []float64, cPast []mat.Vec) (mat.Vec, error) {
		d, err := realMPCCompute(cfg, tPast, cPast)
		if err != nil {
			return nil, err
		}
		d[0] = 0
		return d, nil
	}
	expectCaught(t, "channel-biased controller", func(s int64) error {
		return mpcPermutationEquivariant(broken, s)
	})
}

func TestCSVRoundTripCatchesLossyWriter(t *testing.T) {
	// Broken writer: perturbs samples beyond the documented quantization
	// before serializing.
	broken := func(tr *workload.Trace, w io.Writer) error {
		rows := make([][]float64, tr.NumVMs())
		for i := range rows {
			rows[i] = make([]float64, tr.NumSteps())
			for k := range rows[i] {
				rows[i][k] = tr.At(i, k) * 0.999
			}
		}
		lossy, err := workload.FromRows(tr.StepSeconds, tr.Names, tr.Sectors, rows)
		if err != nil {
			return err
		}
		return lossy.WriteCSV(w)
	}
	expectCaught(t, "lossy trace writer", func(s int64) error {
		return csvRoundTrip(broken, s)
	})
}

func TestWarmStartEquivalenceCatchesStaleActiveSet(t *testing.T) {
	// Broken warm path: a controller that, when warm starting, keeps
	// returning the previous period's move — the canonical symptom of a
	// stale active set or dirty reused buffer.
	broken := func(cfg mpc.Config, tHists [][]float64, cHists [][]mat.Vec) ([]mat.Vec, error) {
		out, err := realMPCSequence(cfg, tHists, cHists)
		if err != nil {
			return nil, err
		}
		if !cfg.DisableWarmStart {
			for k := 1; k < len(out); k++ {
				out[k] = out[k-1]
			}
		}
		return out, nil
	}
	expectCaught(t, "stale warm-start state", func(s int64) error {
		return mpcWarmStartEquivalence(broken, s)
	})
}

func TestPoolReuseExactCatchesPoolPathDivergence(t *testing.T) {
	// Broken pooled path: silently drops the last candidate when a pool
	// is wired — a buffer-sizing bug only the pooled route would have.
	broken := func(b *packing.Bin, items []packing.Item, cons packing.VectorConstraint, cfg packing.MinSlackConfig) packing.MinSlackResult {
		if cfg.Pool != nil && len(items) > 0 {
			items = items[:len(items)-1]
		}
		return packing.MinimumSlack(b, items, cons, cfg)
	}
	expectCaught(t, "pool-path divergence", func(s int64) error {
		return minSlackPoolReuseExact(broken, s)
	})
}

func TestMigrationConservationCatchesVMLoss(t *testing.T) {
	// Broken walk: its fifth step decommissions a VM instead of migrating
	// it, then keeps walking the survivors.
	calls := 0
	var lost *cluster.VM
	broken := func(r *rand.Rand, dc *cluster.DataCenter, vms []*cluster.VM) error {
		calls++
		if calls == 5 {
			lost = vms[0]
			return dc.Remove(lost)
		}
		if lost != nil {
			vms = vms[1:]
		}
		return randomMigration(r, dc, vms)
	}
	if err := migrationConservation(broken, 1); err == nil {
		t.Fatal("VM loss not caught")
	}
}

func TestReplayConservesMassCatchesDroppedRecords(t *testing.T) {
	// Broken engine: silently drops every seventh record — the failure
	// mode of a replayer that loses records across buffer flushes.
	broken := func(src trace.Source, cfg trace.ReplayConfig) trace.Source {
		return &mutantSource{src: realReplay(src, cfg), drop: 7}
	}
	expectCaught(t, "record-dropping replay", func(s int64) error {
		return replayConservesMass(broken, s)
	})
}

func TestReplayConservesMassCatchesUtilRewrite(t *testing.T) {
	// Broken engine: nudges every utilization by 1e-6 on the way
	// through — a "harmless" precision bug a record-count check would
	// never see.
	broken := func(src trace.Source, cfg trace.ReplayConfig) trace.Source {
		return &mutantSource{src: realReplay(src, cfg), nudge: 1e-6}
	}
	expectCaught(t, "mass-skewing replay", func(s int64) error {
		return replayConservesMass(broken, s)
	})
}

// mutantSource breaks a replay: it drops every drop-th record (0 drops
// none) and adds nudge to every utilization.
type mutantSource struct {
	src   trace.Source
	drop  int
	nudge float64
	n     int
}

func (m *mutantSource) Next() (trace.Record, error) {
	rec, err := m.src.Next()
	if err != nil {
		return rec, err
	}
	if m.n++; m.drop > 0 && m.n%m.drop == 0 {
		if rec, err = m.src.Next(); err != nil {
			return rec, err
		}
	}
	rec.Util += m.nudge
	return rec, nil
}
