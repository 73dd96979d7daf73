package mpc

import (
	"math"
	"testing"

	"vdcpower/internal/mat"
	"vdcpower/internal/sysid"
)

// plantModel returns a 2-input ARX model with negative input gains (more
// CPU → lower response time), like the identified RUBBoS models.
func plantModel() *sysid.Model {
	return &sysid.Model{
		Na: 1, Nb: 2, NumInputs: 2,
		A:     []float64{0.4},
		B:     []mat.Vec{{-0.5, -0.4}, {-0.15, -0.1}},
		Gamma: 3.0,
	}
}

func defaultConfig() Config {
	return Config{
		Model:       plantModel(),
		P:           8,
		M:           2,
		Q:           1,
		R:           mat.Vec{0.1, 0.1},
		TrefPeriods: 2,
		Setpoint:    1.0,
		CMin:        mat.Vec{0.1, 0.1},
		CMax:        mat.Vec{4, 4},
	}
}

// simulate closes the loop between ctl and a linear plant for steps
// periods, starting at rest at response time t0 with allocations c0. The
// plant may differ from the controller's model in its orders, gains and
// offset, but not in its number of inputs.
func simulate(t *testing.T, ctl *Controller, plant *sysid.Model, steps int, c0 mat.Vec, t0 float64) (ts []float64, cs []mat.Vec) {
	t.Helper()
	model := ctl.cfg.Model
	tHist := make([]float64, max(plant.Na, model.Na)+1)
	for i := range tHist {
		tHist[i] = t0
	}
	cHist := make([]mat.Vec, max(plant.Nb, model.Nb)+1)
	for i := range cHist {
		cHist[i] = c0.Clone()
	}
	cur := c0.Clone()
	for k := 0; k < steps; k++ {
		res, err := ctl.Compute(tHist, cHist)
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		cur = cur.Add(res.Delta)
		// Predict wants cPast[0]=c(k): after the shift, cHist[0] is c(k).
		copy(cHist[1:], cHist)
		cHist[0] = cur.Clone()
		y := plant.Predict(tHist, cHist)
		ts = append(ts, y)
		cs = append(cs, cur.Clone())
		copy(tHist[1:], tHist)
		tHist[0] = y
	}
	return ts, cs
}

// midRange is the allocation halfway between each input's bounds.
func midRange(cfg Config) mat.Vec {
	c := make(mat.Vec, len(cfg.CMin))
	for i := range c {
		c[i] = (cfg.CMin[i] + cfg.CMax[i]) / 2
	}
	return c
}

// settled reports whether the last 20 outputs lie within 2% of the set
// point.
func settled(ts []float64, setpoint float64) bool {
	for _, y := range ts[len(ts)-20:] {
		if math.Abs(y-setpoint) > 0.02*setpoint {
			return false
		}
	}
	return true
}

func TestNewValidation(t *testing.T) {
	good := defaultConfig()
	if _, err := New(good); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Config){
		"nil model":      func(c *Config) { c.Model = nil },
		"bad P":          func(c *Config) { c.P = 0 },
		"M > P":          func(c *Config) { c.M = 99 },
		"bad Q":          func(c *Config) { c.Q = 0 },
		"R wrong len":    func(c *Config) { c.R = mat.Vec{1} },
		"R nonpositive":  func(c *Config) { c.R = mat.Vec{1, 0} },
		"bad Tref":       func(c *Config) { c.TrefPeriods = 0 },
		"bad setpoint":   func(c *Config) { c.Setpoint = 0 },
		"bounds len":     func(c *Config) { c.CMin = mat.Vec{0.1} },
		"bounds invalid": func(c *Config) { c.CMin = mat.Vec{2, 2}; c.CMax = mat.Vec{1, 1} },
	}
	for name, mutate := range cases {
		cfg := defaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestComputeHistoryValidation(t *testing.T) {
	ctl, _ := New(defaultConfig())
	if _, err := ctl.Compute([]float64{1}, []mat.Vec{{1, 1}}); err == nil {
		t.Fatal("expected error: short c history")
	}
	if _, err := ctl.Compute([]float64{1, 1}, []mat.Vec{{1, 1}}); err == nil {
		t.Fatal("expected error: short c history (needs Nb)")
	}
	if _, err := ctl.Compute([]float64{1, 1}, []mat.Vec{{1}, {1}}); err == nil {
		t.Fatal("expected error: wrong input dim")
	}
}

func TestConvergesToSetpointPerfectModel(t *testing.T) {
	ctl, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Start far above the set point (t=3s with low allocations).
	ts, _ := simulate(t, ctl, plantModel(), 40, mat.Vec{0.5, 0.5}, 3.0)
	final := ts[len(ts)-1]
	if math.Abs(final-1.0) > 0.02 {
		t.Fatalf("did not converge: final t = %v, want 1.0", final)
	}
	// Monotone-ish approach: last value closer than first.
	if math.Abs(ts[0]-1.0) < math.Abs(final-1.0) {
		t.Fatalf("no progress toward set point: %v", ts[:5])
	}
}

func TestConvergesFromBelow(t *testing.T) {
	// Over-provisioned start (t below set point): the controller should
	// *reduce* allocations until t rises to the set point — the
	// power-saving direction.
	ctl, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts, cs := simulate(t, ctl, plantModel(), 40, mat.Vec{3.0, 3.0}, 0.3)
	final := ts[len(ts)-1]
	if math.Abs(final-1.0) > 0.02 {
		t.Fatalf("did not converge: final t = %v", final)
	}
	last := cs[len(cs)-1]
	if last[0] >= 3.0 || last[1] >= 3.0 {
		t.Fatalf("allocation did not shrink from (3,3): %v", last)
	}
}

func TestRespectsAllocationBounds(t *testing.T) {
	cfg := defaultConfig()
	cfg.CMax = mat.Vec{1.2, 1.2}
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, cs := simulate(t, ctl, plantModel(), 30, mat.Vec{1.0, 1.0}, 5.0)
	for k, cv := range cs {
		for i, x := range cv {
			if x > cfg.CMax[i]+1e-6 || x < cfg.CMin[i]-1e-6 {
				t.Fatalf("step %d input %d: allocation %v outside [%v,%v]", k, i, x, cfg.CMin[i], cfg.CMax[i])
			}
		}
	}
}

func TestDeltaMaxLimitsMoves(t *testing.T) {
	cfg := defaultConfig()
	cfg.DeltaMax = 0.25
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tHist := []float64{5, 5}
	cHist := []mat.Vec{{0.5, 0.5}, {0.5, 0.5}}
	res, err := ctl.Compute(tHist, cHist)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Delta {
		if math.Abs(d) > 0.25+1e-6 {
			t.Fatalf("move %d = %v exceeds DeltaMax", i, d)
		}
	}
}

func TestTerminalConstraintHit(t *testing.T) {
	// With feasible bounds, the predicted trajectory must reach the set
	// point at the end of the control horizon (Eq. 4).
	ctl, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tHist := []float64{2.0, 2.0}
	cHist := []mat.Vec{{1, 1}, {1, 1}}
	res, err := ctl.Compute(tHist, cHist)
	if err != nil {
		t.Fatal(err)
	}
	if res.TerminalRelaxed {
		t.Fatal("terminal constraint should be feasible here")
	}
	if got := res.Predicted[ctl.cfg.M-1]; math.Abs(got-1.0) > 1e-6 {
		t.Fatalf("t(k+M|k) = %v, want set point 1.0", got)
	}
}

func TestInfeasibleSurgeRelaxesTerminal(t *testing.T) {
	// Tight CMax makes the set point unreachable in M steps from a very
	// high response time: the controller must still return a move (toward
	// the bound), flagged as relaxed.
	cfg := defaultConfig()
	cfg.CMax = mat.Vec{1.0, 1.0}
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tHist := []float64{30, 30}
	cHist := []mat.Vec{{0.9, 0.9}, {0.9, 0.9}}
	res, err := ctl.Compute(tHist, cHist)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TerminalRelaxed {
		t.Fatal("expected TerminalRelaxed")
	}
	// Moves must push toward more CPU but stay within bounds.
	for i, d := range res.Delta {
		if cHist[0][i]+d > cfg.CMax[i]+1e-6 {
			t.Fatalf("input %d exceeds CMax: %v", i, cHist[0][i]+d)
		}
		if d < -1e-9 {
			t.Fatalf("input %d moved away from the surge: %v", i, d)
		}
	}
}

func TestAtSetpointStaysPut(t *testing.T) {
	// In steady state at the set point, the optimal move is ~zero.
	model := plantModel()
	// Find steady-state allocation c* with t=1: 1 = 0.4 + (B1+B2)·c + 3
	// → (−0.65, −0.5)·c = −2.4. Pick c=(2, 2.2): −1.3−1.1 = −2.4. ✓
	cStar := mat.Vec{2, 2.2}
	ts := model.Predict([]float64{1}, []mat.Vec{cStar, cStar})
	if math.Abs(ts-1.0) > 1e-9 {
		t.Fatalf("test setup wrong: steady t = %v", ts)
	}
	ctl, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctl.Compute([]float64{1, 1}, []mat.Vec{cStar, cStar})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Delta {
		if math.Abs(d) > 1e-6 {
			t.Fatalf("nonzero move %d at equilibrium: %v", i, d)
		}
	}
}

func TestSetpointChangeRetargets(t *testing.T) {
	ctl, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctl.SetSetpoint(1.5)
	if ctl.Setpoint() != 1.5 {
		t.Fatal("SetSetpoint did not apply")
	}
	ts, _ := simulate(t, ctl, plantModel(), 40, mat.Vec{1, 1}, 3.0)
	if final := ts[len(ts)-1]; math.Abs(final-1.5) > 0.03 {
		t.Fatalf("final t = %v, want 1.5", final)
	}
}

func TestModelMismatchStillConverges(t *testing.T) {
	// Controller uses a model whose gains are 40% off the plant: feedback
	// must still drive the loop to the set point (the robustness argument
	// behind Figs. 4–5).
	cfg := defaultConfig()
	wrong := plantModel()
	wrong.B = []mat.Vec{{-0.3, -0.24}, {-0.09, -0.06}}
	cfg.Model = wrong
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := simulate(t, ctl, plantModel(), 60, mat.Vec{0.5, 0.5}, 3.0)
	if final := ts[len(ts)-1]; math.Abs(final-1.0) > 0.05 {
		t.Fatalf("mismatch loop did not converge: %v", final)
	}
}

func TestAnalyzeNominalConverges(t *testing.T) {
	cfg := defaultConfig()
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := simulate(t, ctl, plantModel(), 60, midRange(cfg), 3.0)
	// Settled within 20 periods: from then on the output never leaves
	// the ±2% band.
	for k, y := range ts[20:] {
		if math.Abs(y-cfg.Setpoint) > 0.02*cfg.Setpoint {
			t.Fatalf("settling too slow: period %d at %v", 20+k, y)
		}
	}
}

func TestAnalyzeFromBelow(t *testing.T) {
	cfg := defaultConfig()
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ts, _ := simulate(t, ctl, plantModel(), 60, mat.Vec{3, 3}, 0.2); !settled(ts, cfg.Setpoint) {
		t.Fatalf("loop did not converge from below: %v", ts[len(ts)-20:])
	}
}

func TestAnalyzeOvershootBounded(t *testing.T) {
	cfg := defaultConfig()
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const t0 = 4.0
	ts, _ := simulate(t, ctl, plantModel(), 60, midRange(cfg), t0)
	// The exponential reference trajectory should keep the excursion
	// below the set point modest, as a fraction of the initial error.
	for _, y := range ts {
		if o := (cfg.Setpoint - y) / (t0 - cfg.Setpoint); o > 0.3 {
			t.Fatalf("overshoot %.2f too large", o)
		}
	}
}

func TestAnalyzeMismatchedPlant(t *testing.T) {
	// 50% stronger plant gains: feedback must still converge.
	plant := plantModel()
	for j := range plant.B {
		plant.B[j] = plant.B[j].Clone().Scale(1.5)
	}
	plant.Gamma *= 1.5
	cfg := defaultConfig()
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ts, _ := simulate(t, ctl, plant, 80, midRange(cfg), 3.0); !settled(ts, cfg.Setpoint) {
		t.Fatalf("loop with 1.5× plant gains did not converge: %v", ts[len(ts)-20:])
	}
}

func TestReferenceTrajectoryShape(t *testing.T) {
	// The first-period prediction should land near ref(k+1|k), which is
	// between t(k) and Ts.
	ctl, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tNow := 3.0
	res, err := ctl.Compute([]float64{tNow, tNow}, []mat.Vec{{1, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicted[0] >= tNow || res.Predicted[0] <= 1.0-1e-9 {
		t.Fatalf("first prediction %v not between Ts and t(k)", res.Predicted[0])
	}
}

func BenchmarkCompute(b *testing.B) {
	ctl, err := New(defaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	tHist := []float64{2, 2}
	cHist := []mat.Vec{{1, 1}, {1, 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctl.Compute(tHist, cHist); err != nil {
			b.Fatal(err)
		}
	}
}
