package workload

import (
	"fmt"
	"math"
)

// SampleError is a typed rejection of one utilization sample: NaN, Inf,
// negative, or above 1. Decoders return it as soon as the offending
// sample is read, so a bad row in a large file fails fast with its
// coordinates instead of after the whole file is parsed.
type SampleError struct {
	VM    string
	Index int // sample index within the VM's series
	Value float64
}

// Error implements error.
func (e *SampleError) Error() string {
	return fmt.Sprintf("workload: VM %q sample %d: utilization %v out of [0,1]", e.VM, e.Index, e.Value)
}

// ShapeError is a typed rejection of a non-rectangular trace: a VM
// whose series length disagrees with the first VM's.
type ShapeError struct {
	VM        string
	Got, Want int
}

// Error implements error.
func (e *ShapeError) Error() string {
	return fmt.Sprintf("workload: VM %q has %d samples, want %d (series must be rectangular)", e.VM, e.Got, e.Want)
}

// checkSample applies the sample contract shared by every decoder.
func checkSample(vm string, i int, u float64) error {
	if math.IsNaN(u) || math.IsInf(u, 0) || u < 0 || u > 1 {
		return &SampleError{VM: vm, Index: i, Value: u}
	}
	return nil
}
