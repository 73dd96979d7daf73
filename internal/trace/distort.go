package trace

import (
	"fmt"
)

// Distortion perturbs the gridded record stream during replay. Apply
// sees one record plus its grid step and returns the (possibly
// rewritten) record and whether it was touched. Implementations draw
// every stochastic choice through hashUnit/hashFold on the replay seed
// — never from shared random state — so a distortion's decisions
// depend only on (seed, vm, step), not on pipeline order or on other
// distortions. Stateful distortions (TimeWarp) hold bounded per-VM
// state and are single-replay instances: build a fresh pipeline per
// Stream (ReplaySpec.Stream does).
type Distortion interface {
	// Name is the distortion's stable provenance label.
	Name() string
	// Params renders the configuration for provenance records.
	Params() string
	// Apply transforms one record.
	Apply(seed int64, step int, rec Record) (Record, bool)
}

// FlashCrowd amplifies a hashed fraction of the VM population inside a
// step window — the "breaking news" surge of the paper's Section V,
// projected onto a replayed real trace.
type FlashCrowd struct {
	StartStep  int     // first amplified step
	Steps      int     // window length in steps
	Amplify    float64 // utilization multiplier (>1)
	VMFraction float64 // fraction of VMs caught in the crowd (0,1]
}

// Name implements Distortion.
func (f FlashCrowd) Name() string { return "flash-crowd" }

// Params implements Distortion.
func (f FlashCrowd) Params() string {
	return fmt.Sprintf("start=%d steps=%d amplify=%.2f vm_fraction=%.2f", f.StartStep, f.Steps, f.Amplify, f.VMFraction)
}

// Apply implements Distortion.
func (f FlashCrowd) Apply(seed int64, step int, rec Record) (Record, bool) {
	if step < f.StartStep || step >= f.StartStep+f.Steps {
		return rec, false
	}
	if hashUnit(seed, "flash-crowd", rec.VM, 0) >= f.VMFraction {
		return rec, false
	}
	rec.Util = clamp01(rec.Util * f.Amplify)
	return rec, true
}

// BurstInject layers short random utilization surges onto the stream:
// at every (VM, step), a burst starts with probability Prob, runs for a
// hashed length in [MinSteps, MaxSteps], and adds a hashed level in
// [MinLevel, MaxLevel]. Membership is recomputed by bounded lookback —
// no state — so a record's fate is a pure function of (seed, vm, step).
type BurstInject struct {
	Prob               float64 // per-(VM, step) burst-start probability
	MinSteps, MaxSteps int     // burst duration window (steps)
	MinLevel, MaxLevel float64 // added utilization window
}

// Name implements Distortion.
func (b BurstInject) Name() string { return "burst" }

// Params implements Distortion.
func (b BurstInject) Params() string {
	return fmt.Sprintf("prob=%.4f steps=[%d,%d] level=[%.2f,%.2f]", b.Prob, b.MinSteps, b.MaxSteps, b.MinLevel, b.MaxLevel)
}

// Apply implements Distortion.
func (b BurstInject) Apply(seed int64, step int, rec Record) (Record, bool) {
	if b.Prob <= 0 || b.MaxSteps <= 0 {
		return rec, false
	}
	add := 0.0
	for s := step - b.MaxSteps + 1; s <= step; s++ {
		if s < 0 || hashUnit(seed, "burst-start", rec.VM, s) >= b.Prob {
			continue
		}
		length := b.MinSteps + int(hashUnit(seed, "burst-len", rec.VM, s)*float64(b.MaxSteps-b.MinSteps+1))
		if step-s >= length {
			continue
		}
		level := b.MinLevel + hashUnit(seed, "burst-level", rec.VM, s)*(b.MaxLevel-b.MinLevel)
		if level > add {
			add = level
		}
	}
	if add <= 0 {
		return rec, false
	}
	rec.Util = clamp01(rec.Util + add)
	return rec, true
}

// TimeWarp phase-shifts each VM by a hashed lag in [0, MaxLagSteps]:
// VM v's replayed utilization at step k is its original utilization at
// step k-lag(v) (the first value holds across the leading edge). Peaks
// that coincided in the original trace are scattered — the correlation
// structure the consolidator exploits is deliberately degraded. State
// is one FIFO of at most lag values per VM: bounded, and a pure
// function of the per-VM record sequence.
type TimeWarp struct {
	MaxLagSteps int
	hist        map[string][]float64
}

// Name implements Distortion.
func (w *TimeWarp) Name() string { return "time-warp" }

// Params implements Distortion.
func (w *TimeWarp) Params() string { return fmt.Sprintf("max_lag_steps=%d", w.MaxLagSteps) }

// Apply implements Distortion.
func (w *TimeWarp) Apply(seed int64, step int, rec Record) (Record, bool) {
	if w.MaxLagSteps <= 0 {
		return rec, false
	}
	lag := int(hashUnit(seed, "time-warp", rec.VM, 0) * float64(w.MaxLagSteps+1))
	if lag == 0 {
		return rec, false
	}
	if w.hist == nil {
		w.hist = map[string][]float64{}
	}
	q := append(w.hist[rec.VM], rec.Util)
	out := q[0]
	if len(q) > lag {
		out = q[0]
		copy(q, q[1:])
		q = q[:len(q)-1]
	}
	w.hist[rec.VM] = q
	rec.Util = out
	return rec, true
}

// SectorRemix reassigns the deterministic VM→sector mapping with a new
// salt. Sectors exist only in the assembled workload.Trace, so the
// record stream passes through untouched; Collect applies the salt
// (ReplaySpec.SectorSalt) when building the trace, and the distortion
// still appears in provenance.
type SectorRemix struct {
	Salt int64
}

// Name implements Distortion.
func (s SectorRemix) Name() string { return "sector-remix" }

// Params implements Distortion.
func (s SectorRemix) Params() string { return fmt.Sprintf("salt=%d", s.Salt) }

// Apply implements Distortion.
func (s SectorRemix) Apply(seed int64, step int, rec Record) (Record, bool) {
	return rec, false
}
