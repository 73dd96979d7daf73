package mpc

import (
	"math"
	"math/rand"
	"testing"

	"vdcpower/internal/mat"
	"vdcpower/internal/sysid"
)

// Edge configurations and randomized safety properties.

func singleInputModel() *sysid.Model {
	return &sysid.Model{
		Na: 1, Nb: 2, NumInputs: 1,
		A:     []float64{0.3},
		B:     []mat.Vec{{-0.8}, {-0.2}},
		Gamma: 2.4,
	}
}

func TestSingleInputSISO(t *testing.T) {
	cfg := Config{
		Model:       singleInputModel(),
		P:           6,
		M:           2,
		Q:           1,
		R:           mat.Vec{0.05},
		TrefPeriods: 2,
		Setpoint:    1.0,
		CMin:        mat.Vec{0.1},
		CMax:        mat.Vec{4},
	}
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ts, _ := simulate(t, ctl, cfg.Model, 60, midRange(cfg), 2.5); !settled(ts, cfg.Setpoint) {
		t.Fatalf("SISO loop did not converge: %v", ts[len(ts)-20:])
	}
}

func TestMinimalHorizonsPEqualsM1(t *testing.T) {
	cfg := defaultConfig()
	cfg.P, cfg.M = 1, 1
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctl.Compute([]float64{2, 2}, []mat.Vec{{1, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predicted) != 1 {
		t.Fatalf("predicted horizon %d", len(res.Predicted))
	}
	// One-step terminal constraint: the prediction must hit the set point.
	if !res.TerminalRelaxed && math.Abs(res.Predicted[0]-1.0) > 1e-6 {
		t.Fatalf("one-step prediction %v", res.Predicted[0])
	}
}

func TestLongControlHorizonMEqualsP(t *testing.T) {
	cfg := defaultConfig()
	cfg.M = cfg.P
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ts, _ := simulate(t, ctl, cfg.Model, 60, midRange(cfg), 3.0); !settled(ts, cfg.Setpoint) {
		t.Fatalf("M=P loop did not converge: %v", ts[len(ts)-20:])
	}
}

func TestHigherOrderARXModel(t *testing.T) {
	// Na=2, Nb=3: the rollout machinery must handle deeper histories.
	m := &sysid.Model{
		Na: 2, Nb: 3, NumInputs: 2,
		A:     []float64{0.3, 0.1},
		B:     []mat.Vec{{-0.4, -0.3}, {-0.15, -0.1}, {-0.05, -0.05}},
		Gamma: 2.8,
	}
	cfg := defaultConfig()
	cfg.Model = m
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tHist := []float64{2, 2, 2}
	cHist := []mat.Vec{{1, 1}, {1, 1}, {1, 1}}
	res, err := ctl.Compute(tHist, cHist)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Delta) != 2 {
		t.Fatalf("delta width %d", len(res.Delta))
	}
	if ts, _ := simulate(t, ctl, m, 80, midRange(cfg), 2.5); !settled(ts, cfg.Setpoint) {
		t.Fatalf("second-order loop did not converge: %v", ts[len(ts)-20:])
	}
}

// Property: for random states within bounds, the first move never takes
// an allocation outside its box, and the result is always finite.
func TestComputeBoundsSafetyProperty(t *testing.T) {
	ctl, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 150; trial++ {
		tNow := rng.Float64() * 6
		tPrev := rng.Float64() * 6
		c0 := mat.Vec{
			cfg.CMin[0] + rng.Float64()*(cfg.CMax[0]-cfg.CMin[0]),
			cfg.CMin[1] + rng.Float64()*(cfg.CMax[1]-cfg.CMin[1]),
		}
		c1 := c0.Clone()
		res, err := ctl.Compute([]float64{tNow, tPrev}, []mat.Vec{c0, c1})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, d := range res.Delta {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				t.Fatalf("trial %d: non-finite move %v", trial, d)
			}
			next := c0[i] + d
			if next < cfg.CMin[i]-1e-6 || next > cfg.CMax[i]+1e-6 {
				t.Fatalf("trial %d: move takes input %d to %v outside [%v,%v] (t=%v)",
					trial, i, next, cfg.CMin[i], cfg.CMax[i], tNow)
			}
		}
	}
}

// The economic extension: with a small level penalty the loop converges
// to a cheaper allocation (concentrated on the higher-gain input) while
// still meeting the set point; without it, the loop parks wherever it
// first reached the set point.
func TestLevelPenaltyFindsCheaperOperatingPoint(t *testing.T) {
	run := func(levelPenalty float64) (finalT, totalAlloc float64, alloc mat.Vec) {
		cfg := defaultConfig() // gains: input 0 is stronger (−0.5/−0.15 vs −0.4/−0.1)
		cfg.LevelPenalty = levelPenalty
		ctl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plant := plantModel()
		tHist := []float64{3, 3}
		cur := mat.Vec{0.5, 0.5}
		cHist := []mat.Vec{cur.Clone(), cur.Clone()}
		var y float64
		for k := 0; k < 120; k++ {
			out, err := ctl.Compute(tHist, cHist)
			if err != nil {
				t.Fatal(err)
			}
			cur = cur.Add(out.Delta)
			cHist = append([]mat.Vec{cur.Clone()}, cHist...)
			if len(cHist) > 3 {
				cHist = cHist[:3]
			}
			y = plant.Predict(tHist, cHist)
			tHist = append([]float64{y}, tHist...)
			if len(tHist) > 2 {
				tHist = tHist[:2]
			}
		}
		return y, cur[0] + cur[1], cur
	}
	tPlain, totalPlain, _ := run(0)
	tEcon, totalEcon, allocEcon := run(0.01)
	if math.Abs(tPlain-1.0) > 0.05 || math.Abs(tEcon-1.0) > 0.1 {
		t.Fatalf("set point lost: plain %v economic %v", tPlain, tEcon)
	}
	if totalEcon >= totalPlain {
		t.Fatalf("level penalty did not reduce total allocation: %.2f vs %.2f",
			totalEcon, totalPlain)
	}
	// The cheaper point concentrates CPU on the stronger input 0.
	if allocEcon[0] <= allocEcon[1] {
		t.Fatalf("economic allocation %v not concentrated on the high-gain input", allocEcon)
	}
}

// Property: the control direction is correct — when far above the set
// point with slack in the box, total allocation never decreases, and
// vice versa.
func TestComputeDirectionProperty(t *testing.T) {
	ctl, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mid := mat.Vec{2, 2}
	over, err := ctl.Compute([]float64{4, 4}, []mat.Vec{mid, mid})
	if err != nil {
		t.Fatal(err)
	}
	if over.Delta[0]+over.Delta[1] <= 0 {
		t.Fatalf("t=4s but total allocation decreased: %v", over.Delta)
	}
	under, err := ctl.Compute([]float64{0.2, 0.2}, []mat.Vec{mid, mid})
	if err != nil {
		t.Fatal(err)
	}
	if under.Delta[0]+under.Delta[1] >= 0 {
		t.Fatalf("t=0.2s but total allocation increased: %v", under.Delta)
	}
}
