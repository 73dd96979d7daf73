// Package power models server power consumption, DVFS P-states, and
// energy accounting for the data-center simulations. The model follows
// the standard decomposition used by the paper's evaluation: a static
// (leakage + platform) term that only sleeping removes, plus a dynamic
// term that scales cubically with frequency and linearly with
// utilization. Power efficiency — the ratio between maximum CPU capacity
// and maximum power (Section V) — is what the PAC/IPAC optimizers sort
// servers by.
package power

import (
	"fmt"
	"math"
	"sort"

	"vdcpower/internal/units"
)

// Spec describes a server model's CPU and power characteristics.
type Spec struct {
	Name     string
	Cores    int
	MaxFreq  units.Hertz   // GHz per core
	PStates  []units.Hertz // per-core frequencies in GHz, ascending; must end at MaxFreq
	PStatic  units.Watt    // W consumed while active regardless of frequency
	PDynMax  units.Watt    // W of dynamic power at MaxFreq and 100% utilization
	PSleep   units.Watt    // W while in the sleep state
	MemoryGB float64
}

// Validate checks the spec for internal consistency.
func (s Spec) Validate() error {
	if s.Cores <= 0 || s.MaxFreq <= 0 {
		return fmt.Errorf("power: spec %q: bad cores/frequency", s.Name)
	}
	if len(s.PStates) == 0 {
		return fmt.Errorf("power: spec %q: no P-states", s.Name)
	}
	if !sort.Float64sAreSorted(s.PStates) {
		return fmt.Errorf("power: spec %q: P-states not ascending", s.Name)
	}
	if s.PStates[0] <= 0 {
		return fmt.Errorf("power: spec %q: nonpositive P-state", s.Name)
	}
	if math.Abs(s.PStates[len(s.PStates)-1]-s.MaxFreq) > 1e-9 {
		return fmt.Errorf("power: spec %q: highest P-state %v != MaxFreq %v", s.Name, s.PStates[len(s.PStates)-1], s.MaxFreq)
	}
	if s.PStatic < 0 || s.PDynMax <= 0 || s.PSleep < 0 {
		return fmt.Errorf("power: spec %q: bad power parameters", s.Name)
	}
	return nil
}

// Capacity returns the total CPU capacity at maximum frequency in GHz.
func (s *Spec) Capacity() units.Hertz { return float64(s.Cores) * s.MaxFreq }

// CapacityAt returns the total CPU capacity at per-core frequency f.
func (s *Spec) CapacityAt(f units.Hertz) units.Hertz { return float64(s.Cores) * f }

// MaxPower returns the active power at maximum frequency, full load.
func (s *Spec) MaxPower() units.Watt { return s.PStatic + s.PDynMax }

// Efficiency is the paper's server-sorting key: maximum CPU capacity per
// watt of maximum power (GHz/W). Higher is better.
func (s *Spec) Efficiency() float64 { return s.Capacity() / s.MaxPower() }

// idleDynFraction is the fraction of the dynamic term burned at idle:
// clock distribution and stalled pipelines are not free.
const idleDynFraction units.Fraction = 0.3

// Power returns active power in watts at per-core frequency f and
// utilization u ∈ [0,1] of the capacity available at f.
func (s *Spec) Power(f units.Hertz, u units.Fraction) units.Watt {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	rel := f / s.MaxFreq
	dynCeil := s.PDynMax * rel * rel * rel
	idle := s.PStatic + idleDynFraction*dynCeil
	busy := s.PStatic + dynCeil
	return idle + (busy-idle)*u
}

// LowestFreqFor returns the lowest P-state whose total capacity covers
// demandGHz, or MaxFreq if none does (the server is then overloaded).
// This is the server-level arbitrator's DVFS decision (Section IV-B).
func (s *Spec) LowestFreqFor(demandGHz units.Hertz) units.Hertz {
	for _, f := range s.PStates {
		if s.CapacityAt(f) >= demandGHz-1e-12 {
			return f
		}
	}
	return s.MaxFreq
}

// The three server types of Section VI-B. Power parameters are chosen so
// that power efficiency strictly decreases from high-end to low-end,
// which is the heterogeneity PAC exploits.

// TypeHighEnd is the 3 GHz quad-core model (12 GHz capacity).
func TypeHighEnd() Spec {
	return Spec{
		Name:     "quad-3.0GHz",
		Cores:    4,
		MaxFreq:  3.0,
		PStates:  []float64{1.0, 1.5, 2.0, 2.5, 3.0},
		PStatic:  120,
		PDynMax:  180,
		PSleep:   4,
		MemoryGB: 16,
	}
}

// TypeMid is the 2 GHz dual-core model (4 GHz capacity).
func TypeMid() Spec {
	return Spec{
		Name:     "dual-2.0GHz",
		Cores:    2,
		MaxFreq:  2.0,
		PStates:  []float64{0.8, 1.2, 1.6, 2.0},
		PStatic:  80,
		PDynMax:  85,
		PSleep:   3,
		MemoryGB: 8,
	}
}

// TypeLow is the 1.5 GHz dual-core model (3 GHz capacity).
func TypeLow() Spec {
	return Spec{
		Name:     "dual-1.5GHz",
		Cores:    2,
		MaxFreq:  1.5,
		PStates:  []float64{0.6, 0.9, 1.2, 1.5},
		PStatic:  75,
		PDynMax:  65,
		PSleep:   3,
		MemoryGB: 8,
	}
}

// AllTypes returns the three standard specs in decreasing efficiency.
func AllTypes() []Spec { return []Spec{TypeHighEnd(), TypeMid(), TypeLow()} }

// Meter integrates power over time into energy.
type Meter struct {
	joules units.Joule
}

// Accumulate adds watts·seconds of consumption.
func (m *Meter) Accumulate(watts units.Watt, seconds units.Second) {
	if watts < 0 || seconds < 0 {
		//lint:ignore panicpolicy meter invariant: negative energy means a sign error upstream
		panic("power: negative accumulation")
	}
	m.joules += watts * seconds
}

// Joules returns total energy in joules.
func (m *Meter) Joules() units.Joule { return m.joules }

// Wh returns total energy in watt-hours.
func (m *Meter) Wh() float64 { return m.joules / 3600 }

// Reset zeroes the meter.
func (m *Meter) Reset() { m.joules = 0 }
