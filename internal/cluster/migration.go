package cluster

import (
	"errors"
	"math"
)

// MigrationModel estimates the downtime of a pre-copy live migration
// (Clark et al., NSDI'05 — reference [3] of the paper): the
// VM's memory is copied over the migration network in iterative passes,
// each pass re-copying the pages dirtied during the previous one, until
// the residual set is small enough to stop-and-copy.
//
// The paper motivates its two time scales with exactly this cost: "a VM
// migration typically requires seconds, or even minutes, to finish".
type MigrationModel struct {
	// BandwidthGbps is the migration link bandwidth in gigabits/s.
	BandwidthGbps float64
	// DirtyFraction is the fraction of memory re-dirtied during one full
	// copy pass (0 ≤ d < 1).
	DirtyFraction float64
	// Passes is the number of iterative pre-copy passes before
	// stop-and-copy.
	Passes int
	// StopOverheadMS is the fixed suspend/resume overhead in ms added to
	// the final copy.
	StopOverheadMS float64
}

// DefaultMigrationModel models a dedicated 1 Gbps migration network with
// moderately write-active VMs.
func DefaultMigrationModel() MigrationModel {
	return MigrationModel{
		BandwidthGbps:  1.0,
		DirtyFraction:  0.15,
		Passes:         4,
		StopOverheadMS: 30,
	}
}

// Validate checks the model parameters.
func (m MigrationModel) Validate() error {
	if m.BandwidthGbps <= 0 {
		return errors.New("cluster: migration bandwidth must be positive")
	}
	if m.DirtyFraction < 0 || m.DirtyFraction >= 1 {
		return errors.New("cluster: dirty fraction must be in [0,1)")
	}
	if m.Passes < 1 {
		return errors.New("cluster: need at least one copy pass")
	}
	if m.StopOverheadMS < 0 {
		return errors.New("cluster: negative stop overhead")
	}
	return nil
}

// gbPerSecond converts the link rate to gigabytes per second.
func (m MigrationModel) gbPerSecond() float64 { return m.BandwidthGbps / 8 }

// Downtime returns the stop-and-copy service interruption in seconds:
// the residual dirty memory after the pre-copy passes, plus the fixed
// suspend/resume overhead.
func (m MigrationModel) Downtime(memGB float64) float64 {
	if memGB < 0 {
		memGB = 0
	}
	residual := memGB * math.Pow(m.DirtyFraction, float64(m.Passes))
	return residual/m.gbPerSecond() + m.StopOverheadMS/1000
}
