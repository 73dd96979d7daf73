package quick

import (
	"fmt"
	"math"
	"math/rand"

	"vdcpower/internal/appsim"
	"vdcpower/internal/devs"
	"vdcpower/internal/queueing"
	"vdcpower/internal/stats"
)

// The MVA law's run lengths and tolerance. Every network is scaled to
// about mvaThroughput requests per second, so a batch holds about 800
// completions. The standard error comes from the batch means, so it is
// itself an estimate: with 30 batches it ranged over 0.6–1.3× its median
// across 200 replications of one network, and a stream whose batches
// happen to agree closely can make an ordinary deviation look like six
// errors. Sixty batches narrow that range by about a third.
const (
	mvaThroughput = 50.0  // requests/s each network is scaled to
	mvaWarmupSec  = 100.0 // settling time before each measurement
	mvaBatches    = 60
	mvaBatchSec   = 16.0
	// mvaSigmas is the tolerance in batch-means standard errors. With 59
	// degrees of freedom a correct simulator strays this far with
	// probability below 1e-6 per comparison.
	mvaSigmas = 6.0
)

// closedNet is one random closed network of the MVA law: a chain of PS
// tiers visited once per request and a population of clients with
// exponential think times.
type closedNet struct {
	tiers []appsim.TierConfig
	n     int
	think float64
}

// randomClosedNet draws 1–3 tiers with demand means in [0.005, 0.05]
// GHz·s, CVs in [0, 2] and allocations in [0.5, 2] GHz, 1–80 clients and
// a think time in [0.1, 2] s. It then rescales demands and think time
// together, which scales MVA's response time and inverse throughput
// alike, so that the network completes mvaThroughput requests per second.
func randomClosedNet(r *rand.Rand) (closedNet, error) {
	c := closedNet{tiers: make([]appsim.TierConfig, 1+r.Intn(3)), n: 1 + r.Intn(80), think: uniform(r, 0.1, 2)}
	for j := range c.tiers {
		c.tiers[j] = appsim.TierConfig{DemandMean: uniform(r, 0.005, 0.05), DemandCV: uniform(r, 0, 2), InitialAllocation: uniform(r, 0.5, 2)}
	}
	caps := make([]float64, len(c.tiers))
	for j, tc := range c.tiers {
		caps[j] = tc.InitialAllocation
	}
	res, err := c.mva(caps)
	if err != nil {
		return c, err
	}
	f := res.Throughput / mvaThroughput
	for j := range c.tiers {
		c.tiers[j].DemandMean *= f
	}
	c.think *= f
	return c, nil
}

// mva solves the network exactly at the given tier allocations.
func (c closedNet) mva(caps []float64) (queueing.Result, error) {
	net := &queueing.Network{ThinkTime: c.think, Demands: make([]float64, len(c.tiers))}
	for j, tc := range c.tiers {
		net.Demands[j] = tc.DemandMean / caps[j]
	}
	return queueing.Solve(net, c.n)
}

// scaledCapacity multiplies a capacity by a factor drawn from [1.25, 2]
// or its inverse, so every change moves the tier by at least a quarter.
func scaledCapacity(r *rand.Rand, c float64) float64 {
	f := uniform(r, 1.25, 2)
	if r.Intn(2) == 0 {
		f = 1 / f
	}
	return c * f
}

// simulatorMatchesMVA is the appsim/matches-mva law. It runs 2–4 random
// closed networks, each as one application in its own domain of one
// parent simulator, drains them all through the parent, and compares
// each application's throughput and mean response time with exact MVA,
// which holds for lognormal demands because PS stations are BCMP type 2.
// It then changes one tier's allocation per application and pauses
// another tier, changing that tier's allocation during the pause, and
// compares again once the system has settled. A comparison passes when
// the simulated mean lies within mvaSigmas batch-means standard errors
// of the exact value.
func simulatorMatchesMVA(seed int64) error {
	r := NewRand(seed)
	parent := devs.NewSimulator()
	nets := make([]closedNet, 2+r.Intn(3))
	apps := make([]*appsim.App, len(nets))
	for i := range nets {
		c, err := randomClosedNet(r)
		if err != nil {
			return err
		}
		nets[i] = c
		apps[i] = appsim.New(parent.NewDomain(), appsim.Config{
			Name: fmt.Sprintf("net%d", i), Tiers: c.tiers, Concurrency: c.n, ThinkTime: c.think, Seed: r.Int63(),
		})
		apps[i].Start()
	}
	if err := settledMatchesMVA(parent, nets, apps, "initial"); err != nil {
		return err
	}
	pause := uniform(r, 1, 5)
	paused := make([]int, len(apps))
	for i, app := range apps {
		j := r.Intn(app.NumTiers())
		app.SetAllocation(j, scaledCapacity(r, app.Allocation(j)))
		paused[i] = r.Intn(app.NumTiers())
		app.PauseTier(paused[i], pause)
	}
	parent.RunUntil(parent.Now() + pause/2)
	for i, app := range apps {
		app.SetAllocation(paused[i], scaledCapacity(r, app.Allocation(paused[i])))
	}
	parent.RunUntil(parent.Now() + pause/2)
	return settledMatchesMVA(parent, nets, apps, "after a capacity change and a pause")
}

// settledMatchesMVA drains the parent through a warm-up and mvaBatches
// batches and checks every application against MVA at its current
// allocations.
func settledMatchesMVA(parent *devs.Simulator, nets []closedNet, apps []*appsim.App, phase string) error {
	parent.RunUntil(parent.Now() + mvaWarmupSec)
	x := make([][]float64, len(apps))
	rt := make([][]float64, len(apps))
	for _, app := range apps {
		app.DrainResponseTimes()
	}
	for b := 0; b < mvaBatches; b++ {
		parent.RunUntil(parent.Now() + mvaBatchSec)
		for i, app := range apps {
			w := app.DrainResponseTimes()
			x[i] = append(x[i], float64(len(w))/mvaBatchSec)
			rt[i] = append(rt[i], stats.Mean(w))
		}
	}
	for i, app := range apps {
		exact, err := nets[i].mva(app.Allocations())
		if err != nil {
			return err
		}
		for _, m := range []struct {
			name    string
			batches []float64
			want    float64
		}{{"throughput", x[i], exact.Throughput}, {"mean response time", rt[i], exact.ResponseTime}} {
			mean := stats.Mean(m.batches)
			se := stats.StdDev(m.batches) / math.Sqrt(mvaBatches)
			if !(math.Abs(mean-m.want) <= mvaSigmas*se) {
				return fmt.Errorf("%s, %s (%d tiers, N=%d): %s %.5g ± %.2g (batch-means SE), MVA %.5g",
					phase, app.Name, app.NumTiers(), nets[i].n, m.name, mean, se, m.want)
			}
		}
	}
	return nil
}
