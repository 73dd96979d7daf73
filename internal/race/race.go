//go:build !race

// Package race reports whether the binary was built with the race
// detector. The zero-allocation test gates (DESIGN §12) skip
// themselves under -race: the detector instruments every memory access
// and allocates shadow state, so testing.AllocsPerRun measures the
// instrumentation, not the code under test.
package race

// Enabled is true when the race detector is active.
const Enabled = false
