package testbed

import (
	"math"

	"vdcpower/internal/stats"
)

// RunStatic advances the testbed for the given duration without stepping
// the controllers: allocations stay frozen at their current values, as
// in a statically provisioned deployment. Records carry the measured
// per-app 90-percentiles and power so controller-on and controller-off
// runs can be compared under identical workloads (the comparison behind
// Figure 3's caption, where the baseline lacks response time control).
// The records are a view into the storage Run uses, with Run's rules.
func (tb *Testbed) RunStatic(duration float64, hook func(period int, now float64)) ([]PeriodRecord, error) {
	records := tb.periodRecords(int(duration / tb.Cfg.Period))
	last := make([]float64, len(tb.Apps))
	for i := range last {
		last[i] = tb.Cfg.Setpoint
	}
	t0 := tb.Sim.Now()
	for k := range records {
		if hook != nil {
			hook(k, tb.Sim.Now()-t0)
		}
		tb.Sim.RunUntil(tb.Sim.Now() + tb.Cfg.Period)
		rec := &records[k]
		rec.Time = tb.Sim.Now() - t0
		for i, app := range tb.Apps {
			if t90 := stats.Percentile(app.DrainResponseTimes(), 90); !math.IsNaN(t90) {
				last[i] = t90
			}
			rec.T90[i] = last[i]
		}
		for _, arb := range tb.Arbitrators {
			arb.Throttle()
		}
		rec.PowerW = tb.DC.TotalPower()
	}
	return records, nil
}

// Fig3Static runs the Figure 3 surge scenario with the response time
// controllers frozen after an initial settling phase: the uncontrolled
// system violates its set point for the whole surge, demonstrating why
// DVFS/consolidation alone (the pMapper-style baseline) is not enough.
func Fig3Static(cfg Config) (*Fig3Result, error) {
	tb, err := New(cfg)
	if err != nil {
		return nil, err
	}
	appIdx := 4
	if appIdx >= len(tb.Apps) {
		appIdx = len(tb.Apps) - 1
	}
	// Settle under control, then freeze each tier at its time-averaged
	// steady-state allocation — the provisioning a static deployment
	// would pick. Freezing at one instant would inherit that period's
	// controller noise.
	if _, err := tb.Run(DefaultSettleSec, nil); err != nil {
		return nil, err
	}
	const avgPeriods = 25
	sums := make([][]float64, len(tb.Apps))
	for k := 0; k < avgPeriods; k++ {
		if _, err := tb.Run(cfg.Period, nil); err != nil {
			return nil, err
		}
		for i, ctl := range tb.Controllers {
			d := ctl.Demands()
			if sums[i] == nil {
				sums[i] = make([]float64, len(d))
			}
			for j, v := range d {
				sums[i][j] += v
			}
		}
	}
	for i, a := range tb.Apps {
		for j := range sums[i] {
			a.SetAllocation(j, sums[i][j]/avgPeriods)
		}
	}
	const stepStart, stepEnd, total = 600.0, 1200.0, 1800.0
	app := tb.Apps[appIdx]
	base := cfg.Concurrency
	recs, err := tb.RunStatic(total, func(_ int, now float64) {
		switch {
		case now >= stepStart && now < stepEnd && app.Concurrency() == base:
			app.SetConcurrency(2 * base)
		case now >= stepEnd && app.Concurrency() != base:
			app.SetConcurrency(base)
		}
	})
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{AppLabel: app.Name, StepStart: stepStart, StepEnd: stepEnd}
	for _, r := range recs {
		res.ResponseTime = append(res.ResponseTime, SeriesPoint{Time: r.Time, Value: r.T90[appIdx]})
		res.Power = append(res.Power, SeriesPoint{Time: r.Time, Value: r.PowerW})
	}
	return res, nil
}
