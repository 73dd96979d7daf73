package testbed

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"vdcpower/internal/appsim"
	"vdcpower/internal/core"
	"vdcpower/internal/mat"
	"vdcpower/internal/stats"
	"vdcpower/internal/sysid"
)

// referenceIdentify is the identification loop testbed.identify ran
// before core.Identify replaced it, kept as the differential reference.
// It excites app (App1 of tb) and fits the model; restoring the
// operating point is left to the caller, as core.Identify leaves it.
func referenceIdentify(tb *Testbed, app core.ControlledApp) (*sysid.Model, sysid.FitMetrics, error) {
	cfg := tb.Cfg
	rng := rand.New(rand.NewSource(cfg.Seed + 10007))
	tb.Sim.RunUntil(tb.Sim.Now() + cfg.IdentWarmupSec)
	app.DrainResponseTimes()
	nTiers := app.NumTiers()
	ds := &sysid.Dataset{}
	for k := 0; k < cfg.IdentPeriods; k++ {
		c := make(mat.Vec, nTiers)
		for j := range c {
			c[j] = cfg.CMin + (cfg.CMax-cfg.CMin)*(0.15+0.7*rng.Float64())
		}
		t90 := stats.Percentile(app.DrainResponseTimes(), 90)
		if math.IsNaN(t90) {
			t90 = 0
		}
		ds.Append(t90, c)
		for j := range c {
			app.SetAllocation(j, c[j])
		}
		tb.Sim.RunUntil(tb.Sim.Now() + cfg.Period)
	}
	model, err := sysid.Identify(ds, 1, 2, nTiers)
	if err != nil {
		return nil, sysid.FitMetrics{}, err
	}
	fit, err := sysid.Evaluate(model, ds)
	return model, fit, err
}

// tap records every window an identification loop drains from App1 and
// every allocation it sets. The ARX(1,2) fit never reads the first
// sample, so a loop that skipped the warm-up drain would fit the same
// model; the tap still tells the two loops apart.
type tap struct {
	*appsim.App
	drained []int
	set     []float64
}

func (a *tap) DrainResponseTimes() []float64 {
	w := a.App.DrainResponseTimes()
	a.drained = append(a.drained, len(w))
	return w
}

func (a *tap) SetAllocation(tier int, ghz float64) {
	a.set = append(a.set, ghz)
	a.App.SetAllocation(tier, ghz)
}

// TestIdentifyMatchesReference runs core.Identify and the reference loop
// on fresh, identical testbeds and requires every coefficient, the
// offset, every fit metric and everything the loops did to App1 to be
// equal, bit for bit.
func TestIdentifyMatchesReference(t *testing.T) {
	short := func(apps, periods int, warmup float64) Config {
		cfg := DefaultConfig()
		cfg.NumApps, cfg.NumServers = apps, 2
		cfg.IdentPeriods, cfg.IdentWarmupSec = periods, warmup
		return cfg
	}
	for _, set := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"40p-10s", short(2, 40, 10)},
		{"60p-20s", short(2, 60, 20)},
		{"80p-20s", short(4, 80, 20)},
		{"three-tier", threeTierConfig()},
	} {
		t.Run(set.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 50; seed++ {
				cfg := set.cfg
				cfg.Seed = seed
				refModel, refFit, refTap := identifyFresh(t, cfg, referenceIdentify)
				model, fit, tap := identifyFresh(t, cfg, func(tb *Testbed, app core.ControlledApp) (*sysid.Model, sysid.FitMetrics, error) {
					return core.Identify(app, func(d float64) { tb.Sim.RunUntil(tb.Sim.Now() + d) }, cfg.experiment())
				})
				if !sameModel(model, refModel) || fit != refFit {
					t.Fatalf("seed %d: core.Identify fitted\n  %v %+v\nthe reference\n  %v %+v", seed, model, fit, refModel, refFit)
				}
				if !slices.Equal(tap.drained, refTap.drained) || !slices.Equal(tap.set, refTap.set) {
					t.Fatalf("seed %d: core.Identify drained or excited App1 differently from the reference", seed)
				}
			}
		})
	}
}

// identifyFresh builds a fresh testbed for cfg and runs one
// identification loop on its tapped App1.
func identifyFresh(t *testing.T, cfg Config, loop func(*Testbed, core.ControlledApp) (*sysid.Model, sysid.FitMetrics, error)) (*sysid.Model, sysid.FitMetrics, *tap) {
	t.Helper()
	tb, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app := &tap{App: tb.Apps[0]}
	model, fit, err := loop(tb, app)
	if err != nil {
		t.Fatal(err)
	}
	return model, fit, app
}

// sameModel compares two models coefficient by coefficient with ==.
func sameModel(a, b *sysid.Model) bool {
	if a.Na != b.Na || a.Nb != b.Nb || a.NumInputs != b.NumInputs || a.Gamma != b.Gamma || !slices.Equal(a.A, b.A) {
		return false
	}
	return slices.EqualFunc(a.B, b.B, func(x, y mat.Vec) bool { return slices.Equal(x, y) })
}
