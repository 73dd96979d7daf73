package testbed

import (
	"fmt"

	"vdcpower/internal/stats"
)

// Defaults for the measurement windows, in seconds. Settle discards the
// transient; Measure is the averaging window.
const (
	DefaultSettleSec  = 200
	DefaultMeasureSec = 400
)

// AppStat is one bar of Fig. 2 / one point of Figs. 4–5: the mean and
// standard deviation of an application's per-period 90-percentile
// response time.
type AppStat struct {
	Label string
	Mean  float64
	Std   float64
}

// Fig2 reproduces Figure 2: the response time of all applications under
// the 1000 ms set point, reported as mean ± std per application.
func Fig2(cfg Config) ([]AppStat, error) {
	tb, err := New(cfg)
	if err != nil {
		return nil, err
	}
	settle := int(DefaultSettleSec / cfg.Period)
	recs, err := tb.Run(DefaultSettleSec+DefaultMeasureSec, nil)
	if err != nil {
		return nil, err
	}
	out := make([]AppStat, len(tb.Apps))
	for i := range tb.Apps {
		var xs []float64
		for _, r := range recs[settle:] {
			xs = append(xs, r.T90[i])
		}
		out[i] = AppStat{Label: tb.Apps[i].Name, Mean: stats.Mean(xs), Std: stats.StdDev(xs)}
	}
	return out, nil
}

// SeriesPoint is one sample of a time series (Figs. 3a and 3b).
type SeriesPoint struct {
	Time  float64
	Value float64
}

// Fig3Result carries the two panels of Figure 3: the stressed
// application's response time and the cluster power, under a workload
// step (concurrency 40→80) between StepStart and StepEnd.
type Fig3Result struct {
	AppLabel           string
	StepStart, StepEnd float64
	ResponseTime       []SeriesPoint // Fig. 3(a)
	Power              []SeriesPoint // Fig. 3(b)
}

// LateViolationRate returns the share of response-time samples in the
// late surge window t ∈ [800, 1200) s that exceed 1.5× the set point,
// or 0 when the window holds no sample.
func (r *Fig3Result) LateViolationRate(setpoint float64) float64 {
	viol, n := 0, 0
	for _, p := range r.ResponseTime {
		if p.Time >= 800 && p.Time < 1200 {
			n++
			if p.Value > setpoint*1.5 {
				viol++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(viol) / float64(n)
}

// Fig3 reproduces Figure 3: a typical run with a workload surge on App5
// from t=600 s to t=1200 s.
func Fig3(cfg Config) (*Fig3Result, error) {
	tb, err := New(cfg)
	if err != nil {
		return nil, err
	}
	appIdx := 4 // App5, as in the paper
	if appIdx >= len(tb.Apps) {
		appIdx = len(tb.Apps) - 1
	}
	const stepStart, stepEnd, total = 600.0, 1200.0, 1800.0
	app := tb.Apps[appIdx]
	base := cfg.Concurrency
	recs, err := tb.Run(total, func(_ int, now float64) {
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

// Fig4 reproduces Figure 4: App5's achieved response time when its
// concurrency level varies across levels while the controller keeps the
// model identified at the default concurrency — the robustness
// experiment.
func Fig4(cfg Config, levels []int) ([]AppStat, error) {
	out := make([]AppStat, 0, len(levels))
	for _, lvl := range levels {
		tb, err := New(cfg)
		if err != nil {
			return nil, err
		}
		appIdx := 4
		if appIdx >= len(tb.Apps) {
			appIdx = len(tb.Apps) - 1
		}
		tb.Apps[appIdx].SetConcurrency(lvl)
		settle := int(DefaultSettleSec / cfg.Period)
		recs, err := tb.Run(DefaultSettleSec+DefaultMeasureSec, nil)
		if err != nil {
			return nil, err
		}
		var xs []float64
		for _, r := range recs[settle:] {
			xs = append(xs, r.T90[appIdx])
		}
		out = append(out, AppStat{
			Label: fmt.Sprintf("concurrency=%d", lvl),
			Mean:  stats.Mean(xs),
			Std:   stats.StdDev(xs),
		})
	}
	return out, nil
}

// Fig5 reproduces Figure 5: App5's achieved response time as its set
// point sweeps setpoints (seconds) while other applications stay at the
// default.
func Fig5(cfg Config, setpoints []float64) ([]AppStat, error) {
	out := make([]AppStat, 0, len(setpoints))
	for _, sp := range setpoints {
		tb, err := New(cfg)
		if err != nil {
			return nil, err
		}
		appIdx := 4
		if appIdx >= len(tb.Apps) {
			appIdx = len(tb.Apps) - 1
		}
		tb.Controllers[appIdx].SetSetpoint(sp)
		settle := int(DefaultSettleSec / cfg.Period)
		recs, err := tb.Run(DefaultSettleSec+DefaultMeasureSec, nil)
		if err != nil {
			return nil, err
		}
		var xs []float64
		for _, r := range recs[settle:] {
			xs = append(xs, r.T90[appIdx])
		}
		out = append(out, AppStat{
			Label: fmt.Sprintf("setpoint=%.0fms", sp*1000),
			Mean:  stats.Mean(xs),
			Std:   stats.StdDev(xs),
		})
	}
	return out, nil
}
