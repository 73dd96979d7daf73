package stats

import (
	"math"
	"testing"
)

// TestPercentileEdgeCases covers the boundary inputs the SLA monitors can
// feed the percentile estimator: empty windows, single samples, NaN
// contamination, and the extreme ranks.
func TestPercentileEdgeCases(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64 // NaN means "expect NaN"
	}{
		{"empty", nil, 50, nan},
		{"empty-p0", []float64{}, 0, nan},
		{"single-p0", []float64{3.5}, 0, 3.5},
		{"single-p50", []float64{3.5}, 50, 3.5},
		{"single-p100", []float64{3.5}, 100, 3.5},
		{"p0-is-min", []float64{9, 1, 5}, 0, 1},
		{"p100-is-max", []float64{9, 1, 5}, 100, 9},
		{"p-below-zero-clamps", []float64{9, 1, 5}, -10, 1},
		{"p-above-hundred-clamps", []float64{9, 1, 5}, 110, 9},
		{"interpolates", []float64{0, 10}, 25, 2.5},
		{"median-even", []float64{1, 2, 3, 4}, 50, 2.5},
		// sort.Float64s orders NaN before every other value, so p0 of a
		// contaminated window is NaN while upper ranks stay meaningful.
		{"nan-sorts-first", []float64{1, nan, 2}, 0, nan},
		{"nan-p100-is-max", []float64{1, nan, 2}, 100, 2},
		{"nan-p50", []float64{1, nan, 2}, 50, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Percentile(tc.xs, tc.p)
			if math.IsNaN(tc.want) {
				if !math.IsNaN(got) {
					t.Fatalf("Percentile(%v, %v) = %v, want NaN", tc.xs, tc.p, got)
				}
				return
			}
			if math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("Percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
			}
		})
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}
