package trace

import (
	"fmt"
	"io"
)

// GapPolicy decides what fills a grid step with no underlying samples.
type GapPolicy string

// The gap policies. Hold repeats the last observed value (the default:
// a VM that stopped reporting is still running at its last level),
// Zero treats missing as idle, Error rejects the input.
const (
	GapHold  GapPolicy = "hold"
	GapZero  GapPolicy = "zero"
	GapError GapPolicy = "error"
)

// Validate checks the policy name.
func (p GapPolicy) Validate() error {
	switch p {
	case GapHold, GapZero, GapError, "":
		return nil
	}
	return fmt.Errorf("trace: unknown gap policy %q (hold, zero or error)", p)
}

// Grid defaults: the paper's 15-minute sampling interval, a one-day
// maximum gap (a VM silent longer than that is treated as malformed
// input rather than padded forever — the bound also keeps the pending
// queue, and with it memory, constant), and a generous VM-count bound.
const (
	DefaultStepSeconds = 900
	DefaultMaxGapSteps = 96
	DefaultMaxVMs      = 1 << 20
)

// GridConfig parameterizes resampling onto the utilization grid. It is
// also a replay spec's "grid" section.
type GridConfig struct {
	// StepSeconds is the grid interval (default 900 — the paper's
	// 15-minute schema).
	StepSeconds float64 `json:"step_seconds,omitempty"`
	// Gap fills steps with no samples (default GapHold).
	Gap GapPolicy `json:"gap,omitempty"`
	// MaxGapSteps bounds how many consecutive steps a gap may span
	// before the input is rejected (default 96; <0 disables the bound
	// and with it the constant-memory guarantee).
	MaxGapSteps int `json:"max_gap_steps,omitempty"`
	// MaxVMs bounds the number of distinct VMs tracked (the resampler
	// keeps O(#VMs) state); exceeding it is an error. Default 2^20.
	MaxVMs int `json:"max_vms,omitempty"`
}

func (c GridConfig) withDefaults() GridConfig {
	if c.StepSeconds <= 0 {
		c.StepSeconds = DefaultStepSeconds
	}
	if c.Gap == "" {
		c.Gap = GapHold
	}
	if c.MaxGapSteps == 0 {
		c.MaxGapSteps = DefaultMaxGapSteps
	}
	if c.MaxVMs == 0 {
		c.MaxVMs = DefaultMaxVMs
	}
	return c
}

// vmBucket is the per-VM accumulator: the open grid step and the mean
// of the raw samples that landed in it.
type vmBucket struct {
	step int // open bucket index
	sum  float64
	n    int
	last float64 // last completed bucket's value, for GapHold
}

// Grid normalizes a raw source's heterogeneous sampling intervals onto
// the fixed utilization grid: samples landing in the same step average;
// empty steps fill per the gap policy. It emits one Record per (VM,
// step) with Time = step*StepSeconds. A VM's bucket flushes when its
// own next sample crosses the step boundary (and finally at EOF, in
// first-seen VM order), so emission order is a deterministic function
// of the input alone. Memory is O(#VMs + MaxGapSteps), never O(#rows).
type Grid struct {
	src     Source
	cfg     GridConfig
	vms     map[string]*vmBucket
	order   []string // first-seen order, for the EOF flush
	pending []Record // flushed, not yet returned (FIFO; bounded by MaxGapSteps+1)
	err     error
	done    bool
}

// NewGrid wraps src in the resampler.
func NewGrid(src Source, cfg GridConfig) (*Grid, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Gap.Validate(); err != nil {
		return nil, err
	}
	return &Grid{src: src, cfg: cfg, vms: map[string]*vmBucket{}}, nil
}

// StepSeconds returns the grid interval.
func (g *Grid) StepSeconds() float64 { return g.cfg.StepSeconds }

// NumVMs returns the number of distinct VMs seen so far.
func (g *Grid) NumVMs() int { return len(g.vms) }

// Next implements Source.
func (g *Grid) Next() (Record, error) {
	for {
		if len(g.pending) > 0 {
			rec := g.pending[0]
			g.pending = g.pending[1:]
			if len(g.pending) == 0 {
				g.pending = g.pending[:0] // reuse the backing array
			}
			return rec, nil
		}
		if g.err != nil {
			return Record{}, g.err
		}
		if g.done {
			return Record{}, io.EOF
		}
		raw, err := g.src.Next()
		if err == io.EOF {
			g.done = true
			g.flushAll()
			continue
		}
		if err != nil {
			g.err = err
			return Record{}, err
		}
		if err := g.ingest(raw); err != nil {
			g.err = err
			return Record{}, err
		}
	}
}

// ingest folds one raw sample into its VM's bucket, flushing completed
// buckets (and gap fill) into the pending queue.
func (g *Grid) ingest(raw Record) error {
	k := int(raw.Time / g.cfg.StepSeconds)
	b, ok := g.vms[raw.VM]
	if !ok {
		if len(g.vms) >= g.cfg.MaxVMs {
			return fmt.Errorf("trace: input exceeds the %d-VM bound (GridConfig.MaxVMs)", g.cfg.MaxVMs)
		}
		b = &vmBucket{step: k}
		g.vms[raw.VM] = b
		g.order = append(g.order, raw.VM)
	}
	switch {
	case k < b.step:
		return &RecordError{Format: "grid", Line: 0,
			Reason: fmt.Sprintf("VM %s sample at step %d after step %d (per-VM timestamps must not go backwards)", raw.VM, k, b.step)}
	case k == b.step:
		b.sum += raw.Util
		b.n++
	default:
		if err := g.flushTo(raw.VM, b, k); err != nil {
			return err
		}
		b.sum, b.n = raw.Util, 1
	}
	return nil
}

// flushTo completes b's open bucket, fills the gap up to (not
// including) step k, and reopens b at k. An empty open bucket (n == 0,
// only possible for a VM created by flushAll edge cases) emits nothing.
func (g *Grid) flushTo(vm string, b *vmBucket, k int) error {
	if b.n > 0 {
		v := b.sum / float64(b.n)
		g.pending = append(g.pending, Record{VM: vm, Time: float64(b.step) * g.cfg.StepSeconds, Util: v})
		b.last = v
	}
	gap := k - b.step - 1
	if gap > 0 {
		if g.cfg.MaxGapSteps >= 0 && gap > g.cfg.MaxGapSteps {
			return &RecordError{Format: "grid",
				Reason: fmt.Sprintf("VM %s has a %d-step gap (bound %d; see GridConfig.MaxGapSteps)", vm, gap, g.cfg.MaxGapSteps)}
		}
		switch g.cfg.Gap {
		case GapError:
			return &RecordError{Format: "grid",
				Reason: fmt.Sprintf("VM %s missing %d step(s) before step %d (gap policy error)", vm, gap, k)}
		case GapZero:
			for s := b.step + 1; s < k; s++ {
				g.pending = append(g.pending, Record{VM: vm, Time: float64(s) * g.cfg.StepSeconds})
			}
		default: // GapHold
			for s := b.step + 1; s < k; s++ {
				g.pending = append(g.pending, Record{VM: vm, Time: float64(s) * g.cfg.StepSeconds, Util: b.last})
			}
		}
	}
	b.step = k
	return nil
}

// flushAll completes every VM's open bucket at EOF, in first-seen order.
func (g *Grid) flushAll() {
	for _, vm := range g.order {
		b := g.vms[vm]
		if b.n > 0 {
			v := b.sum / float64(b.n)
			g.pending = append(g.pending, Record{VM: vm, Time: float64(b.step) * g.cfg.StepSeconds, Util: v})
			b.n = 0
		}
	}
}
