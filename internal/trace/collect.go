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
	// and 2^16): a Collector's memory is O(VMs × steps) — the size of
	// its output — and these bounds keep a malformed input from
	// inflating it.
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

// Collector is the Sink that assembles a gridded stream into a
// rectangular workload.Trace: VM rows in first-seen order, the union
// step range as the horizon, ragged edges aligned per the edge policy,
// and sectors assigned by salted hash. Feed it directly (Drain) or put
// it behind a Replay pipeline, then call Trace.
type Collector struct {
	cfg    CollectConfig
	series map[string]*vmSeries
	order  []string
}

// NewCollector builds a collector. The config's gap-policy name is
// validated by Trace; construction cannot fail.
func NewCollector(cfg CollectConfig) *Collector {
	return &Collector{cfg: cfg.withDefaults(), series: map[string]*vmSeries{}}
}

// Emit implements Sink.
func (c *Collector) Emit(rec Record) error {
	kf := rec.Time / c.cfg.StepSeconds
	k := int(math.Round(kf))
	if math.Abs(kf-float64(k)) > 1e-9 {
		return fmt.Errorf("trace: record for %s at %.3f s is off the %.0f s grid (resample with NewGrid first)",
			rec.VM, rec.Time, c.cfg.StepSeconds)
	}
	s, ok := c.series[rec.VM]
	if !ok {
		if len(c.series) >= c.cfg.MaxVMs {
			return fmt.Errorf("trace: input exceeds the %d-VM bound (CollectConfig.MaxVMs)", c.cfg.MaxVMs)
		}
		s = &vmSeries{start: k}
		c.series[rec.VM] = s
		c.order = append(c.order, rec.VM)
	}
	if want := s.start + len(s.vals); k != want {
		return fmt.Errorf("trace: VM %s has non-consecutive grid steps (%d after %d); gridded sources emit contiguous steps",
			rec.VM, k, want-1)
	}
	if len(s.vals) >= c.cfg.MaxSteps {
		return fmt.Errorf("trace: input exceeds the %d-step bound (CollectConfig.MaxSteps)", c.cfg.MaxSteps)
	}
	if !validUtil(rec.Util) || rec.Util > 1 {
		return fmt.Errorf("trace: VM %s step %d utilization %v out of [0,1]", rec.VM, k, rec.Util)
	}
	s.vals = append(s.vals, rec.Util)
	return nil
}

// Trace assembles the collected records. The result satisfies
// workload.Trace's Validate contract.
func (c *Collector) Trace() (*workload.Trace, error) {
	if err := c.cfg.Edge.Validate(); err != nil {
		return nil, err
	}
	if len(c.order) == 0 {
		return nil, fmt.Errorf("trace: source produced no records")
	}
	lo, hi := math.MaxInt, math.MinInt
	for _, vm := range c.order {
		s := c.series[vm]
		if s.start < lo {
			lo = s.start
		}
		if end := s.start + len(s.vals); end > hi {
			hi = end
		}
	}
	steps := hi - lo
	if steps > c.cfg.MaxSteps {
		return nil, fmt.Errorf("trace: union horizon of %d steps exceeds the %d-step bound", steps, c.cfg.MaxSteps)
	}
	names := make([]string, len(c.order))
	sectors := make([]workload.Sector, len(c.order))
	rows := make([][]float64, len(c.order))
	for i, vm := range c.order {
		s := c.series[vm]
		lead, trail := s.start-lo, hi-(s.start+len(s.vals))
		if (lead > 0 || trail > 0) && c.cfg.Edge == GapError {
			return nil, fmt.Errorf("trace: VM %s covers steps [%d,%d) of [%d,%d) and the edge policy is error",
				vm, s.start, s.start+len(s.vals), lo, hi)
		}
		row := make([]float64, steps)
		first, last := s.vals[0], s.vals[len(s.vals)-1]
		if c.cfg.Edge == GapZero {
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
		sectors[i] = AssignSector(c.cfg.SectorSalt, vm)
		rows[i] = row
	}
	return workload.FromRows(c.cfg.StepSeconds, names, sectors, rows)
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
// the replayer (and its distortions) from the synthetic generator or a
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
