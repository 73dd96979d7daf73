package trace

import (
	"fmt"
	"io"
	"math"
)

// FeedConfig parameterizes turning a gridded record stream into
// per-application concurrency levels for the live control loop.
type FeedConfig struct {
	// StepSeconds is the stream's grid interval (default 900).
	StepSeconds float64
	// Apps is the number of applications fed (required).
	Apps int
	// Seed salts the deterministic VM→application assignment.
	Seed int64
	// MaxConcurrency is the client count an application sees when its
	// VMs run at full utilization (default 80 — twice the paper's
	// 40-client baseline, so a replayed surge visibly overloads).
	MaxConcurrency int
	// LagSteps is the watermark: step k is considered complete once a
	// record for step >= k+LagSteps arrives (or the stream ends).
	// Defaults to DefaultMaxGapSteps+1, the resampler's out-of-order
	// bound; it also bounds the feed's buffered state.
	LagSteps int
}

func (c FeedConfig) withDefaults() FeedConfig {
	if c.StepSeconds <= 0 {
		c.StepSeconds = DefaultStepSeconds
	}
	if c.MaxConcurrency <= 0 {
		c.MaxConcurrency = 80
	}
	if c.LagSteps <= 0 {
		c.LagSteps = DefaultMaxGapSteps + 1
	}
	return c
}

// stepAgg accumulates one grid step's per-app utilization.
type stepAgg struct {
	sum []float64
	n   []int
}

// Feed adapts a replayed record stream into the live serve loop: each
// call to Step returns the next grid step's per-application concurrency
// levels, aggregated from the VMs hashed onto each application. The
// feed is streaming — it buffers at most LagSteps step aggregates plus
// one record — and deterministic: the same stream and seed produce the
// same level sequence regardless of read timing.
type Feed struct {
	src     Source
	cfg     FeedConfig
	pending map[int]*stepAgg
	next    int  // next step index to emit
	started bool // next is anchored to the first record seen
	high    int  // highest step index seen
	done    bool
	err     error
}

// NewFeed wraps src (typically a Stream over a gridded source).
func NewFeed(src Source, cfg FeedConfig) (*Feed, error) {
	cfg = cfg.withDefaults()
	if cfg.Apps <= 0 {
		return nil, fmt.Errorf("trace: feed needs Apps > 0")
	}
	return &Feed{src: src, cfg: cfg, pending: map[int]*stepAgg{}}, nil
}

// Err returns the stream error that ended the feed, if any (io.EOF is
// a clean end and reported as nil).
func (f *Feed) Err() error { return f.err }

// app maps a VM onto an application index, deterministically.
func (f *Feed) app(vm string) int {
	return int(hashFold(f.cfg.Seed, "feed-app", vm, 0) % uint64(f.cfg.Apps))
}

// ingest folds one record into its step aggregate.
func (f *Feed) ingest(rec Record) {
	k := int(math.Round(rec.Time / f.cfg.StepSeconds))
	if !f.started {
		f.started = true
		f.next = k
		f.high = k
	}
	if k < f.next {
		return // below the emission watermark: dropped
	}
	if k > f.high {
		f.high = k
	}
	agg, ok := f.pending[k]
	if !ok {
		agg = &stepAgg{sum: make([]float64, f.cfg.Apps), n: make([]int, f.cfg.Apps)}
		f.pending[k] = agg
	}
	a := f.app(rec.VM)
	agg.sum[a] += rec.Util
	agg.n[a]++
}

// Step returns the concurrency levels for the next grid step. A level
// of -1 means the step carried no data for that application (the caller
// holds its current setting). ok is false once the stream is exhausted
// or failed (see Err); levels is nil then.
func (f *Feed) Step() (levels []int, ok bool) {
	for !f.done && f.high < f.next+f.cfg.LagSteps {
		rec, err := f.src.Next()
		if err != nil {
			f.done = true
			if err != io.EOF {
				f.err = err
			}
			break
		}
		f.ingest(rec)
	}
	agg, have := f.pending[f.next]
	if !have {
		if f.done && len(f.pending) == 0 {
			return nil, false
		}
		// A wholly empty step inside the horizon: hold everything.
		f.next++
		out := make([]int, f.cfg.Apps)
		for i := range out {
			out[i] = -1
		}
		return out, true
	}
	delete(f.pending, f.next)
	f.next++
	out := make([]int, f.cfg.Apps)
	for a := 0; a < f.cfg.Apps; a++ {
		if agg.n[a] == 0 {
			out[a] = -1
			continue
		}
		mean := agg.sum[a] / float64(agg.n[a])
		out[a] = int(math.Round(mean * float64(f.cfg.MaxConcurrency)))
	}
	return out, true
}
