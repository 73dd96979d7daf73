package core

import (
	"fmt"
	"math"
	"math/rand"

	"vdcpower/internal/mat"
	"vdcpower/internal/stats"
	"vdcpower/internal/sysid"
	"vdcpower/internal/units"
)

// Experiment parameterizes the identification experiment of Section IV-B.
type Experiment struct {
	Warmup  units.Second // plant time run before the first sample
	Periods int          // samples recorded, one per control period
	Period  units.Second // control period T
	// Each tier's allocation is drawn uniformly from the middle 70% of
	// [CMin, CMax] every period.
	CMin, CMax units.Hertz
	Seed       int64 // excitation seed
}

// Identify runs the identification experiment of Section IV-B on app and
// fits the ARX(1,2) model of Eq. (1): it warms the plant up, then every
// period draws a pseudo-random allocation for each tier, records the
// 90-percentile response time of the previous period (0 when no request
// completed), applies the draw, and advances the plant one period.
// advance(d) must run the plant for d seconds.
func Identify(app ControlledApp, advance func(units.Second), e Experiment) (*sysid.Model, sysid.FitMetrics, error) {
	rng := rand.New(rand.NewSource(e.Seed))
	advance(e.Warmup)
	app.DrainResponseTimes()
	ds := &sysid.Dataset{}
	// Append copies each draw, so one vector and one selection buffer
	// serve every period.
	c := make(mat.Vec, app.NumTiers())
	var scratch []float64
	for k := 0; k < e.Periods; k++ {
		for j := range c {
			c[j] = e.CMin + (e.CMax-e.CMin)*(0.15+0.7*rng.Float64())
		}
		var t90 units.Second
		t90, scratch = stats.PercentileScratch(app.DrainResponseTimes(), 90, scratch)
		if math.IsNaN(t90) {
			t90 = 0
		}
		ds.Append(t90, c)
		for j := range c {
			app.SetAllocation(j, c[j])
		}
		advance(e.Period)
	}
	model, err := sysid.Identify(ds, 1, 2, len(c))
	if err != nil {
		return nil, sysid.FitMetrics{}, fmt.Errorf("core: identification failed: %w", err)
	}
	fit, err := sysid.Evaluate(model, ds)
	if err != nil {
		return nil, sysid.FitMetrics{}, fmt.Errorf("core: model evaluation failed: %w", err)
	}
	return model, fit, nil
}
