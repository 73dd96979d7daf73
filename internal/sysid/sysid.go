// Package sysid implements the system identification step of Section IV-B:
// fitting an ARX (autoregressive with exogenous inputs) model
//
//	t(k) = Σ_{i=1..Na} a_i·t(k−i) + Σ_{j=1..Nb} b_jᵀ·c(k−j) + γ
//
// from measured (response time, CPU allocation) sequences, exactly the
// form of Eq. (1) in the paper (there Na=1, Nb=2) by batch least squares,
// along with fit-quality metrics.
package sysid

import (
	"errors"
	"fmt"
	"math"

	"vdcpower/internal/mat"
)

// Model is an identified ARX model for one application: a single output
// (90-percentile response time) and NumInputs control inputs (the CPU
// allocations of the application's VMs).
type Model struct {
	Na        int       // autoregressive order
	Nb        int       // input order
	NumInputs int       // number of VMs (tiers)
	A         []float64 // a_1..a_Na
	B         []mat.Vec // b_1..b_Nb, each of length NumInputs
	Gamma     float64   // affine offset
}

// NumParams returns the number of free parameters of the model.
func (m *Model) NumParams() int { return m.Na + m.Nb*m.NumInputs + 1 }

// Validate checks internal consistency.
func (m *Model) Validate() error {
	if m.Na < 0 || m.Nb < 1 || m.NumInputs < 1 {
		return fmt.Errorf("sysid: invalid orders Na=%d Nb=%d inputs=%d", m.Na, m.Nb, m.NumInputs)
	}
	if len(m.A) != m.Na {
		return fmt.Errorf("sysid: len(A)=%d, want Na=%d", len(m.A), m.Na)
	}
	if len(m.B) != m.Nb {
		return fmt.Errorf("sysid: len(B)=%d, want Nb=%d", len(m.B), m.Nb)
	}
	for j, b := range m.B {
		if len(b) != m.NumInputs {
			return fmt.Errorf("sysid: len(B[%d])=%d, want %d", j, len(b), m.NumInputs)
		}
	}
	return nil
}

// Predict computes t(k) from the history. tPast[i] is t(k−1−i);
// cPast[j] is c(k−1−j). The slices must hold at least Na and Nb entries.
func (m *Model) Predict(tPast []float64, cPast []mat.Vec) float64 {
	if len(tPast) < m.Na || len(cPast) < m.Nb {
		//lint:ignore panicpolicy precondition: the caller owns the history window and must fill it first
		panic("sysid: Predict history too short")
	}
	y := m.Gamma
	for i := 0; i < m.Na; i++ {
		y += m.A[i] * tPast[i]
	}
	for j := 0; j < m.Nb; j++ {
		y += m.B[j].Dot(cPast[j])
	}
	return y
}

// DCGain returns the steady-state change in output per unit steady change
// of input i: (Σ_j b_j[i]) / (1 − Σ a).
func (m *Model) DCGain(input int) float64 {
	num := 0.0
	for _, b := range m.B {
		num += b[input]
	}
	den := 1.0
	for _, a := range m.A {
		den -= a
	}
	return num / den
}

// Stable reports whether the autoregressive part is (sufficient-condition)
// stable: Σ|a_i| < 1. This is conservative but adequate for the
// first-order models the controller uses.
func (m *Model) Stable() bool {
	s := 0.0
	for _, a := range m.A {
		if a < 0 {
			s -= a
		} else {
			s += a
		}
	}
	return s < 1
}

// Credible reports whether the model is fit to steer a controller: it is
// well formed, stable, and every input's DC gain is negative, since more
// CPU must not slow the application.
func (m *Model) Credible() bool {
	if m.Validate() != nil || !m.Stable() {
		return false
	}
	for i := 0; i < m.NumInputs; i++ {
		if m.DCGain(i) >= 0 {
			return false
		}
	}
	return true
}

// String renders the model equation.
func (m *Model) String() string {
	s := "t(k) ="
	for i, a := range m.A {
		s += fmt.Sprintf(" %+.4g·t(k-%d)", a, i+1)
	}
	for j, b := range m.B {
		for i, bi := range b {
			s += fmt.Sprintf(" %+.4g·c%d(k-%d)", bi, i+1, j+1)
		}
	}
	s += fmt.Sprintf(" %+.4g", m.Gamma)
	return s
}

// Dataset is a recorded identification experiment: aligned sequences of
// outputs T[k] and the inputs C[k] that were applied during period k.
type Dataset struct {
	T []float64
	C []mat.Vec
}

// Append adds one sample.
func (d *Dataset) Append(t float64, c mat.Vec) {
	d.T = append(d.T, t)
	d.C = append(d.C, c.Clone())
}

// Identify fits an ARX(Na, Nb) model with numInputs inputs to the dataset
// by batch least squares. It needs at least NumParams + max(Na,Nb)
// samples.
func Identify(d *Dataset, na, nb, numInputs int) (*Model, error) {
	if na < 0 || nb < 1 || numInputs < 1 {
		return nil, fmt.Errorf("sysid: invalid orders Na=%d Nb=%d inputs=%d", na, nb, numInputs)
	}
	if len(d.T) != len(d.C) {
		return nil, errors.New("sysid: dataset T and C lengths differ")
	}
	lag := na
	if nb > lag {
		lag = nb
	}
	nParams := na + nb*numInputs + 1
	nRows := len(d.T) - lag
	if nRows < nParams {
		return nil, fmt.Errorf("sysid: need at least %d samples, have %d", nParams+lag, len(d.T))
	}
	for _, c := range d.C {
		if len(c) != numInputs {
			return nil, fmt.Errorf("sysid: input dimension %d, want %d", len(c), numInputs)
		}
	}
	phi := mat.NewMat(nRows, nParams)
	y := make(mat.Vec, nRows)
	for r := 0; r < nRows; r++ {
		k := r + lag
		col := 0
		for i := 1; i <= na; i++ {
			phi.Set(r, col, d.T[k-i])
			col++
		}
		for j := 1; j <= nb; j++ {
			for i := 0; i < numInputs; i++ {
				phi.Set(r, col, d.C[k-j][i])
				col++
			}
		}
		phi.Set(r, col, 1) // affine term
		y[r] = d.T[k]
	}
	theta, err := mat.LeastSquares(phi, y)
	if err != nil {
		return nil, fmt.Errorf("sysid: identification failed: %w", err)
	}
	return unpack(theta, na, nb, numInputs), nil
}

func unpack(theta mat.Vec, na, nb, numInputs int) *Model {
	m := &Model{Na: na, Nb: nb, NumInputs: numInputs}
	col := 0
	m.A = make([]float64, na)
	for i := 0; i < na; i++ {
		m.A[i] = theta[col]
		col++
	}
	m.B = make([]mat.Vec, nb)
	for j := 0; j < nb; j++ {
		m.B[j] = make(mat.Vec, numInputs)
		for i := 0; i < numInputs; i++ {
			m.B[j][i] = theta[col]
			col++
		}
	}
	m.Gamma = theta[col]
	return m
}

// FitMetrics quantifies one-step-ahead prediction quality on a dataset.
type FitMetrics struct {
	R2     float64 // coefficient of determination
	FitPct float64 // 100·(1 − ||y−ŷ|| / ||y−mean(y)||), MATLAB-style
	RMSE   float64
}

// Evaluate computes one-step-ahead fit metrics of the model on d.
func Evaluate(m *Model, d *Dataset) (FitMetrics, error) {
	if err := m.Validate(); err != nil {
		return FitMetrics{}, err
	}
	lag := m.Na
	if m.Nb > lag {
		lag = m.Nb
	}
	if len(d.T) <= lag {
		return FitMetrics{}, errors.New("sysid: dataset too short to evaluate")
	}
	var sse, sst, mean float64
	n := 0
	for k := lag; k < len(d.T); k++ {
		mean += d.T[k]
		n++
	}
	mean /= float64(n)
	for k := lag; k < len(d.T); k++ {
		tPast := make([]float64, m.Na)
		for i := 0; i < m.Na; i++ {
			tPast[i] = d.T[k-1-i]
		}
		cPast := make([]mat.Vec, m.Nb)
		for j := 0; j < m.Nb; j++ {
			cPast[j] = d.C[k-1-j]
		}
		pred := m.Predict(tPast, cPast)
		e := d.T[k] - pred
		sse += e * e
		dm := d.T[k] - mean
		sst += dm * dm
	}
	fm := FitMetrics{}
	if sst > 0 {
		fm.R2 = 1 - sse/sst
		fm.FitPct = 100 * (1 - math.Sqrt(sse)/math.Sqrt(sst))
		//lint:ignore floatcompare exact-zero residual is a perfect fit, not a tolerance question
	} else if sse == 0 {
		fm.R2, fm.FitPct = 1, 100
	}
	fm.RMSE = math.Sqrt(sse / float64(n))
	return fm, nil
}
