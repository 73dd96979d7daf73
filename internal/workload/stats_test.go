package workload

import "testing"

func TestAggregateUtilizationBounds(t *testing.T) {
	tr, _ := Generate(smallConfig())
	agg := tr.AggregateUtilization()
	if len(agg) != tr.NumSteps() {
		t.Fatalf("len = %d", len(agg))
	}
	for k, u := range agg {
		if u <= 0 || u > 1 {
			t.Fatalf("step %d: aggregate %v out of (0,1]", k, u)
		}
	}
}

func TestAggregateUtilizationEmptyTrace(t *testing.T) {
	tr := &Trace{StepSeconds: 900}
	if got := tr.AggregateUtilization(); len(got) != 0 {
		t.Fatalf("expected empty, got %v", got)
	}
}

func TestPeakToMeanShowsDiurnalSwing(t *testing.T) {
	tr, _ := Generate(GenConfig{NumVMs: 300, Days: 7, StepsPerHour: 4, Seed: 4})
	ratio := tr.PeakToMean()
	// Sector shapes produce a clear day/night swing.
	if ratio < 1.15 {
		t.Fatalf("peak/mean %v too flat for a diurnal trace", ratio)
	}
	if ratio > 5 {
		t.Fatalf("peak/mean %v implausibly spiky", ratio)
	}
}

func TestPeakToMeanDegenerate(t *testing.T) {
	if (&Trace{}).PeakToMean() != 0 {
		t.Fatal("empty trace should give 0")
	}
}
