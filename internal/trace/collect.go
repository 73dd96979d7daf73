package trace

import (
	"fmt"
	"io"
	"math"

	"vdcpower/internal/workload"
)

// CollectConfig parameterizes assembling a gridded stream into a
// rectangular workload.Trace.
type CollectConfig struct {
	// StepSeconds is the grid interval of the incoming records
	// (default 900). Record times must sit on this grid.
	StepSeconds float64
	// Edge aligns VMs that start late or end early relative to the
	// union horizon: hold extends the first/last observed value, zero
	// pads with idle, error rejects ragged coverage. Default GapHold.
	Edge GapPolicy
	// SectorSalt seeds the deterministic VM→sector assignment (real
	// traces carry no sector labels). The sector-remix distortion
	// replays with a different salt.
	SectorSalt int64
	// MaxVMs and MaxSteps bound the assembled matrix (defaults 2^20
	// and 2^16): Collect's memory is O(VMs × steps) — the size of its
	// output — and these bounds keep a malformed input from inflating
	// it.
	MaxVMs   int
	MaxSteps int
}

func (c CollectConfig) withDefaults() CollectConfig {
	if c.StepSeconds <= 0 {
		c.StepSeconds = DefaultStepSeconds
	}
	if c.Edge == "" {
		c.Edge = GapHold
	}
	if c.MaxVMs == 0 {
		c.MaxVMs = DefaultMaxVMs
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 1 << 16
	}
	return c
}

// vmSeries accumulates one VM's consecutive grid samples.
type vmSeries struct {
	start int // first step index
	vals  []float64
}

// AssignSector maps a VM name to a sector deterministically; the salt
// rotates the assignment (the sector-remix distortion).
func AssignSector(salt int64, vm string) workload.Sector {
	return workload.Sector(hashFold(salt, "sector", vm, 0) % 4)
}

// Collect drains a gridded source into a rectangular workload.Trace:
// VM rows in first-seen order, the union step range as the horizon,
// ragged edges aligned per the edge policy, and sectors assigned by
// salted hash. Put a Stream in front of src to collect a distorted
// replay. The result satisfies workload.Trace's Validate contract.
func Collect(src Source, cfg CollectConfig) (*workload.Trace, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Edge.Validate(); err != nil {
		return nil, err
	}
	series := map[string]*vmSeries{}
	var order []string
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		kf := rec.Time / cfg.StepSeconds
		k := int(math.Round(kf))
		if math.Abs(kf-float64(k)) > 1e-9 {
			return nil, fmt.Errorf("trace: record for %s at %.3f s is off the %.0f s grid (resample with NewGrid first)",
				rec.VM, rec.Time, cfg.StepSeconds)
		}
		s, ok := series[rec.VM]
		if !ok {
			if len(series) >= cfg.MaxVMs {
				return nil, fmt.Errorf("trace: input exceeds the %d-VM bound (CollectConfig.MaxVMs)", cfg.MaxVMs)
			}
			s = &vmSeries{start: k}
			series[rec.VM] = s
			order = append(order, rec.VM)
		}
		if want := s.start + len(s.vals); k != want {
			return nil, fmt.Errorf("trace: VM %s has non-consecutive grid steps (%d after %d); gridded sources emit contiguous steps",
				rec.VM, k, want-1)
		}
		if len(s.vals) >= cfg.MaxSteps {
			return nil, fmt.Errorf("trace: input exceeds the %d-step bound (CollectConfig.MaxSteps)", cfg.MaxSteps)
		}
		if !validUtil(rec.Util) || rec.Util > 1 {
			return nil, fmt.Errorf("trace: VM %s step %d utilization %v out of [0,1]", rec.VM, k, rec.Util)
		}
		s.vals = append(s.vals, rec.Util)
	}
	return assemble(cfg, series, order)
}

// assemble aligns the collected series on their union horizon.
func assemble(cfg CollectConfig, series map[string]*vmSeries, order []string) (*workload.Trace, error) {
	if len(order) == 0 {
		return nil, fmt.Errorf("trace: source produced no records")
	}
	lo, hi := math.MaxInt, math.MinInt
	for _, vm := range order {
		s := series[vm]
		if s.start < lo {
			lo = s.start
		}
		if end := s.start + len(s.vals); end > hi {
			hi = end
		}
	}
	steps := hi - lo
	if steps > cfg.MaxSteps {
		return nil, fmt.Errorf("trace: union horizon of %d steps exceeds the %d-step bound", steps, cfg.MaxSteps)
	}
	names := make([]string, len(order))
	sectors := make([]workload.Sector, len(order))
	rows := make([][]float64, len(order))
	for i, vm := range order {
		s := series[vm]
		lead, trail := s.start-lo, hi-(s.start+len(s.vals))
		if (lead > 0 || trail > 0) && cfg.Edge == GapError {
			return nil, fmt.Errorf("trace: VM %s covers steps [%d,%d) of [%d,%d) and the edge policy is error",
				vm, s.start, s.start+len(s.vals), lo, hi)
		}
		row := make([]float64, steps)
		first, last := s.vals[0], s.vals[len(s.vals)-1]
		if cfg.Edge == GapZero {
			first, last = 0, 0
		}
		for k := 0; k < lead; k++ {
			row[k] = first
		}
		copy(row[lead:], s.vals)
		for k := steps - trail; k < steps; k++ {
			row[k] = last
		}
		names[i] = vm
		sectors[i] = AssignSector(cfg.SectorSalt, vm)
		rows[i] = row
	}
	return workload.FromRows(cfg.StepSeconds, names, sectors, rows)
}

// traceSource replays a workload.Trace as a gridded stream in canonical
// order: step-major, VMs in trace order within a step — the order a
// live system would observe the samples arriving.
type traceSource struct {
	tr    *workload.Trace
	step  int
	vm    int
	steps int
}

// FromTrace wraps an in-memory trace as a Source. Useful for driving
// a Stream (and its distortions) from the synthetic generator or a
// previously collected real trace.
func FromTrace(tr *workload.Trace) Source {
	return &traceSource{tr: tr, steps: tr.NumSteps()}
}

// Next implements Source.
func (s *traceSource) Next() (Record, error) {
	if s.step >= s.steps || s.tr.NumVMs() == 0 {
		return Record{}, io.EOF
	}
	rec := Record{
		VM:   s.tr.Names[s.vm],
		Time: float64(s.step) * s.tr.StepSeconds,
		Util: s.tr.At(s.vm, s.step),
	}
	s.vm++
	if s.vm == s.tr.NumVMs() {
		s.vm = 0
		s.step++
	}
	return rec, nil
}
