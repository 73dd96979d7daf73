package workload

// AggregateUtilization returns the across-VM mean utilization at each
// step — the data-center-wide load curve the consolidation optimizer
// rides.
func (t *Trace) AggregateUtilization() []float64 {
	steps := t.NumSteps()
	out := make([]float64, steps)
	if t.NumVMs() == 0 {
		return out
	}
	// Each step sums its VMs in index order.
	for k := range out {
		for vm := 0; vm < t.vms; vm++ {
			out[k] += t.At(vm, k)
		}
	}
	for k := range out {
		out[k] /= float64(t.NumVMs())
	}
	return out
}

// PeakToMean returns the ratio between the highest and the average
// aggregate utilization — the consolidation opportunity: a flat trace
// (ratio ≈ 1) leaves nothing for the optimizer to reclaim at night.
func (t *Trace) PeakToMean() float64 {
	agg := t.AggregateUtilization()
	if len(agg) == 0 {
		return 0
	}
	peak, sum := agg[0], 0.0
	for _, u := range agg {
		sum += u
		if u > peak {
			peak = u
		}
	}
	mean := sum / float64(len(agg))
	//lint:ignore floatcompare exact-zero guard before division
	if mean == 0 {
		return 0
	}
	return peak / mean
}
