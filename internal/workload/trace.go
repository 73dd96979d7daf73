// Package workload generates and stores CPU utilization traces. The
// paper's Fig. 6 simulation replays a proprietary trace of 5,415 real
// servers (15-minute average CPU utilization, 7 days, ten companies in
// manufacturing, telecommunications, financial and retail sectors). That
// trace is not publicly available, so this package synthesizes an
// equivalent: per-sector diurnal and weekly patterns, heterogeneous base
// loads, autocorrelated noise, and occasional bursts, sampled every 15
// minutes for 7 days starting on a Monday — the statistical features the
// consolidation optimizer actually reacts to. Generation is fully
// deterministic given a seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Sector labels the industry pattern of a VM's load, mirroring the
// sectors covered by the paper's trace.
type Sector int

// The four sectors of the source trace.
const (
	Manufacturing Sector = iota
	Telecom
	Financial
	Retail
	numSectors
)

// String names the sector.
func (s Sector) String() string {
	switch s {
	case Manufacturing:
		return "manufacturing"
	case Telecom:
		return "telecom"
	case Financial:
		return "financial"
	case Retail:
		return "retail"
	}
	return fmt.Sprintf("sector(%d)", int(s))
}

// Utilization is stored step-major inside tiles of tileVMs consecutive
// VMs: VM vm at step k is tiles[vm>>tileShift][k<<tileShift|vm&tileMask].
// A simulation step reads every VM at one step, so it walks one short
// contiguous run per tile instead of one cache line per VM. Tiles, not one
// slice, keep each allocation small enough to reuse pages a freed trace
// left behind. lineVMs VMs fill one 64-byte cache line of a step.
const (
	tileShift = 8
	tileVMs   = 1 << tileShift
	tileMask  = tileVMs - 1
	lineVMs   = 8
)

// Trace holds per-VM CPU utilization series sampled at a fixed interval.
// Utilization is relative to the VM's own peak requirement (0..1). Read
// samples through At; FromRows builds a trace from per-VM rows.
type Trace struct {
	StepSeconds float64  // sampling interval (900 for 15 minutes)
	Names       []string // VM names, one per VM
	Sectors     []Sector // sector per VM

	tiles      [][]float64 // utilization in [0,1], step-major per tile
	vms, steps int
}

// FromRows builds a trace from per-VM rows, series[vm][step], copying
// them into the trace's own storage. Every row must be as long as the
// first: a ragged row is a *ShapeError and a sample outside [0,1] a
// *SampleError, reported for the first offending VM in index order. The
// result satisfies Validate.
func FromRows(stepSeconds float64, names []string, sectors []Sector, series [][]float64) (*Trace, error) {
	tr := &Trace{StepSeconds: stepSeconds, Names: names, Sectors: sectors, vms: len(series)}
	if len(series) > 0 {
		tr.steps = len(series[0])
	}
	for vm, row := range series {
		if len(row) != tr.steps {
			return nil, &ShapeError{VM: name(tr, vm), Got: len(row), Want: tr.steps}
		}
		for k, u := range row {
			if err := checkSample(name(tr, vm), k, u); err != nil {
				return nil, err
			}
		}
	}
	for first := 0; first < tr.vms; first += tileVMs {
		tr.setRows(first, series[first:min(first+tileVMs, tr.vms)])
	}
	// Every sample passed checkSample above; only the shape is left.
	if err := tr.checkShape(); err != nil {
		return nil, err
	}
	return tr, nil
}

// setRows stores the rows of VMs first, first+1, …, which share a tile,
// one step at a time, so that each step's run of the tile is written in
// one pass. It allocates the tile when first is the tile's first VM: VMs
// arrive in index order.
func (t *Trace) setRows(first int, rows [][]float64) {
	if first&tileMask == 0 {
		t.tiles = append(t.tiles, make([]float64, t.steps<<tileShift))
	}
	tile := t.tiles[first>>tileShift]
	for k := 0; k < t.steps; k++ {
		for j, row := range rows {
			tile[k<<tileShift|(first+j)&tileMask] = row[k]
		}
	}
}

// NumVMs returns the number of VMs.
func (t *Trace) NumVMs() int { return t.vms }

// NumSteps returns the number of samples per VM (0 if empty).
func (t *Trace) NumSteps() int { return t.steps }

// At returns the utilization of VM vm at step k.
func (t *Trace) At(vm, k int) float64 {
	return t.tiles[vm>>tileShift][k<<tileShift|vm&tileMask]
}

// Validate checks structural consistency and value ranges.
func (t *Trace) Validate() error {
	if err := t.checkShape(); err != nil {
		return err
	}
	for i := 0; i < t.vms; i++ {
		for k := 0; k < t.steps; k++ {
			if u := t.At(i, k); u < 0 || u > 1 || math.IsNaN(u) {
				return fmt.Errorf("workload: series %d step %d utilization %v out of [0,1]", i, k, u)
			}
		}
	}
	return nil
}

// checkShape is Validate without the pass over the samples: a positive
// step, and one name and one sector per VM.
func (t *Trace) checkShape() error {
	if t.StepSeconds <= 0 {
		return fmt.Errorf("workload: nonpositive step %v", t.StepSeconds)
	}
	if len(t.Names) != t.vms || len(t.Sectors) != t.vms {
		return fmt.Errorf("workload: names/sectors/series length mismatch %d/%d/%d",
			len(t.Names), len(t.Sectors), t.vms)
	}
	return nil
}

// GenConfig parameterizes trace synthesis.
type GenConfig struct {
	NumVMs       int
	Days         int // 7 reproduces the paper's horizon
	StepsPerHour int // 4 reproduces the 15-minute sampling
	Seed         int64
}

// sectorShape returns the deterministic utilization shape for a sector at
// the given hour-of-day and day-of-week (0 = Monday), in [0,1].
func sectorShape(s Sector, hour float64, day int) float64 {
	weekend := day >= 5
	switch s {
	case Manufacturing:
		// Two production shifts 06–22, lower weekend output.
		v := 0.25
		if hour >= 6 && hour < 22 {
			v = 0.7
		}
		if weekend {
			v *= 0.55
		}
		return v
	case Telecom:
		// Smooth diurnal wave peaking in the evening, mild weekend dip.
		v := 0.45 + 0.3*math.Sin((hour-13)/24*2*math.Pi)
		if weekend {
			v *= 0.9
		}
		return clamp01(v)
	case Financial:
		// Business hours on weekdays, near-idle otherwise, with an
		// end-of-day batch bump.
		v := 0.12
		if !weekend && hour >= 8 && hour < 18 {
			v = 0.75
		}
		if !weekend && hour >= 18 && hour < 21 {
			v = 0.5 // settlement batch
		}
		return v
	case Retail:
		// Daytime plus evening peaks, strongest on weekends.
		v := 0.2 + 0.35*math.Exp(-sq(hour-12)/18) + 0.3*math.Exp(-sq(hour-19.5)/8)
		if weekend {
			v *= 1.25
		}
		return clamp01(v)
	}
	return 0.3
}

func sq(x float64) float64      { return x * x }
func clamp01(x float64) float64 { return math.Max(0, math.Min(1, x)) }

// Generate synthesizes a trace. Each VM gets a sector, a scale and phase
// jitter, AR(1) noise, and rare bursts (the "breaking news" events the
// response time controller must absorb).
func Generate(cfg GenConfig) (*Trace, error) {
	if cfg.NumVMs <= 0 || cfg.Days <= 0 || cfg.StepsPerHour <= 0 {
		return nil, fmt.Errorf("workload: invalid config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	steps := cfg.Days * 24 * cfg.StepsPerHour
	tr := &Trace{
		StepSeconds: 3600 / float64(cfg.StepsPerHour),
		Names:       make([]string, cfg.NumVMs),
		Sectors:     make([]Sector, cfg.NumVMs),
		vms:         cfg.NumVMs,
		steps:       steps,
	}
	// Samples are drawn VM by VM into rows, and each lineVMs VMs are
	// stored together: storing one VM at a time would write every cache
	// line of its tile once per VM.
	rows := make([][]float64, 0, lineVMs)
	buf := make([]float64, lineVMs*steps)
	for i := 0; i < cfg.NumVMs; i++ {
		sector := Sector(rng.Intn(int(numSectors)))
		tr.Names[i] = fmt.Sprintf("vm-%s-%05d", sector, i)
		tr.Sectors[i] = sector
		scale := 0.3 + 0.45*rng.Float64()     // peak utilization of this VM
		phase := (rng.Float64() - 0.5) * 2.0  // ±1 h phase jitter
		noiseAmp := 0.03 + 0.05*rng.Float64() // AR(1) noise amplitude
		burstRate := 0.002 + 0.002*rng.Float64()
		series := buf[len(rows)*steps:][:steps]
		noise := 0.0
		burstLeft, burstLevel := 0, 0.0
		for k := 0; k < steps; k++ {
			hourOfWeek := float64(k) / float64(cfg.StepsPerHour)
			day := int(hourOfWeek/24) % 7
			hour := math.Mod(hourOfWeek+phase+24, 24)
			base := sectorShape(sector, hour, day) * scale
			noise = 0.85*noise + noiseAmp*rng.NormFloat64()
			if burstLeft == 0 && rng.Float64() < burstRate {
				burstLeft = 2 + rng.Intn(8) // 30 min – 2.5 h surge
				burstLevel = 0.2 + 0.4*rng.Float64()
			}
			burst := 0.0
			if burstLeft > 0 {
				burst = burstLevel
				burstLeft--
			}
			series[k] = clamp01(base + noise + burst)
			if series[k] < 0.01 {
				series[k] = 0.01 // servers are never literally idle
			}
		}
		rows = append(rows, series)
		if len(rows) == lineVMs || i == cfg.NumVMs-1 {
			tr.setRows(i+1-len(rows), rows)
			rows = rows[:0]
		}
	}
	return tr, nil
}

// Slice returns a new trace restricted to the first n VMs (the Fig. 6
// sweep over data centers of increasing size). It shares t's storage.
func (t *Trace) Slice(n int) (*Trace, error) {
	if n <= 0 || n > t.NumVMs() {
		return nil, fmt.Errorf("workload: slice size %d out of range [1,%d]", n, t.NumVMs())
	}
	return &Trace{
		StepSeconds: t.StepSeconds,
		Names:       t.Names[:n],
		Sectors:     t.Sectors[:n],
		tiles:       t.tiles[:(n+tileMask)>>tileShift],
		vms:         n,
		steps:       t.steps,
	}, nil
}

// MeanUtilization returns the average utilization of VM vm over the trace.
func (t *Trace) MeanUtilization(vm int) float64 {
	s := 0.0
	for k := 0; k < t.steps; k++ {
		s += t.At(vm, k)
	}
	return s / float64(t.steps)
}
