package sysid

import (
	"math"
	"math/rand"
	"testing"

	"vdcpower/internal/mat"
)

// makeARXData generates a dataset from a known ARX model, optionally with
// output noise, using persistently exciting random inputs.
func makeARXData(m *Model, n int, noise float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	tHist := make([]float64, m.Na)
	cHist := make([]mat.Vec, m.Nb)
	for j := range cHist {
		cHist[j] = make(mat.Vec, m.NumInputs)
	}
	for k := 0; k < n; k++ {
		// Measure t(k) from the history (it depends on c(k−1), c(k−2), …
		// per Eq. 1), then pick the new allocation c(k) for the next
		// period — the same convention Dataset/Identify use.
		y := m.Predict(tHist, cHist) + noise*rng.NormFloat64()
		c := make(mat.Vec, m.NumInputs)
		for i := range c {
			c[i] = 1 + rng.Float64()*2 // inputs in [1, 3] GHz
		}
		d.Append(y, c)
		cHist = append([]mat.Vec{c}, cHist...)
		if len(cHist) > m.Nb {
			cHist = cHist[:m.Nb]
		}
		tHist = append([]float64{y}, tHist...)
		if len(tHist) > m.Na {
			tHist = tHist[:m.Na]
		}
	}
	return d
}

func refModel() *Model {
	return &Model{
		Na: 1, Nb: 2, NumInputs: 2,
		A:     []float64{0.5},
		B:     []mat.Vec{{-0.3, -0.2}, {-0.1, -0.05}},
		Gamma: 2.5,
	}
}

func TestIdentifyRecoversNoiselessModel(t *testing.T) {
	ref := refModel()
	d := makeARXData(ref, 200, 0, 1)
	got, err := Identify(d, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.A[0]-0.5) > 1e-8 {
		t.Fatalf("A = %v", got.A)
	}
	for j := range ref.B {
		for i := range ref.B[j] {
			if math.Abs(got.B[j][i]-ref.B[j][i]) > 1e-8 {
				t.Fatalf("B[%d][%d] = %v, want %v", j, i, got.B[j][i], ref.B[j][i])
			}
		}
	}
	if math.Abs(got.Gamma-2.5) > 1e-7 {
		t.Fatalf("Gamma = %v", got.Gamma)
	}
}

func TestIdentifyWithNoiseStillClose(t *testing.T) {
	ref := refModel()
	d := makeARXData(ref, 2000, 0.05, 2)
	got, err := Identify(d, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.A[0]-0.5) > 0.05 {
		t.Fatalf("A = %v", got.A)
	}
	fm, err := Evaluate(got, d)
	if err != nil {
		t.Fatal(err)
	}
	if fm.R2 < 0.7 {
		t.Fatalf("R2 = %v, too low", fm.R2)
	}
}

func TestIdentifyErrors(t *testing.T) {
	d := &Dataset{}
	if _, err := Identify(d, 1, 2, 2); err == nil {
		t.Fatal("expected error: too few samples")
	}
	if _, err := Identify(d, -1, 2, 2); err == nil {
		t.Fatal("expected error: bad na")
	}
	if _, err := Identify(d, 1, 0, 2); err == nil {
		t.Fatal("expected error: bad nb")
	}
	if _, err := Identify(d, 1, 1, 0); err == nil {
		t.Fatal("expected error: bad inputs")
	}
	d.T = []float64{1}
	if _, err := Identify(d, 1, 1, 1); err == nil {
		t.Fatal("expected error: T/C mismatch")
	}
	// Wrong input dimension.
	d2 := &Dataset{}
	for k := 0; k < 30; k++ {
		d2.Append(float64(k), mat.Vec{1})
	}
	if _, err := Identify(d2, 1, 1, 2); err == nil {
		t.Fatal("expected error: wrong input dim")
	}
}

func TestModelValidate(t *testing.T) {
	m := refModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := refModel()
	bad.A = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
	bad2 := refModel()
	bad2.B[0] = mat.Vec{1}
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected validation error for B width")
	}
}

func TestModelPredictTooShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	refModel().Predict(nil, nil)
}

func TestDCGain(t *testing.T) {
	m := refModel()
	// input 0: (−0.3 − 0.1)/(1 − 0.5) = −0.8
	if g := m.DCGain(0); math.Abs(g+0.8) > 1e-12 {
		t.Fatalf("DCGain = %v, want -0.8", g)
	}
}

func TestStable(t *testing.T) {
	if !refModel().Stable() {
		t.Fatal("reference model should be stable")
	}
	un := refModel()
	un.A = []float64{1.2}
	if un.Stable() {
		t.Fatal("|a|>1 should be unstable")
	}
}

func TestCredibleRejectsBadModels(t *testing.T) {
	unstable := refModel()
	unstable.A = []float64{1.5}
	if unstable.Credible() {
		t.Fatal("unstable model credible")
	}
	positive := refModel()
	positive.B = []mat.Vec{{0.5, 0.4}, {0.15, 0.1}}
	if positive.Credible() {
		t.Fatal("positive-gain model credible")
	}
	malformed := refModel()
	malformed.A = nil
	if malformed.Credible() {
		t.Fatal("malformed model credible")
	}
	if !refModel().Credible() {
		t.Fatal("good model rejected")
	}
}

func TestEvaluatePerfectModel(t *testing.T) {
	ref := refModel()
	d := makeARXData(ref, 100, 0, 3)
	fm, err := Evaluate(ref, d)
	if err != nil {
		t.Fatal(err)
	}
	if fm.R2 < 1-1e-9 || fm.RMSE > 1e-9 {
		t.Fatalf("perfect model metrics %+v", fm)
	}
}

func TestEvaluateErrors(t *testing.T) {
	m := refModel()
	if _, err := Evaluate(m, &Dataset{}); err == nil {
		t.Fatal("expected error on empty dataset")
	}
	bad := refModel()
	bad.A = nil
	d := makeARXData(refModel(), 50, 0, 4)
	if _, err := Evaluate(bad, d); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestModelStringAndNumParams(t *testing.T) {
	m := refModel()
	if m.NumParams() != 1+2*2+1 {
		t.Fatalf("NumParams = %d", m.NumParams())
	}
	if m.String() == "" {
		t.Fatal("empty String")
	}
}

func BenchmarkIdentify500(b *testing.B) {
	d := makeARXData(refModel(), 500, 0.05, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Identify(d, 1, 2, 2); err != nil {
			b.Fatal(err)
		}
	}
}
