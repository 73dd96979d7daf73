package stats_test

import (
	"fmt"

	"vdcpower/internal/stats"
)

func ExamplePercentile() {
	latencies := []float64{0.2, 0.4, 0.9, 1.1, 0.3, 0.5, 0.8, 1.4, 0.6, 0.7}
	fmt.Printf("p90 = %.2fs\n", stats.Percentile(latencies, 90))
	// Output: p90 = 1.13s
}
