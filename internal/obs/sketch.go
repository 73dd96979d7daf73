// Package obs is the controller-health observability layer: mergeable
// quantile sketches, per-loop health scorecards, SLO burn-rate
// accounting, and a bounded decision-audit ring. A scorecard subscribes
// to a harness's probe and folds the facts it emits. Everything here is
// deterministic (no wall clocks, no randomness — step counters and the
// facts' sim time only), so same-seed runs produce byte-identical
// scorecard JSON, and every per-worker piece of state merges exactly
// (commutatively and associatively), which is what lets sharded sweeps
// aggregate constant-memory summaries without loss.
package obs

import "math"

// Sketch parameters: a DDSketch-style logarithmic bucketing with
// relative accuracy sketchAlpha over [sketchMinValue, sketchMaxValue).
// Values below the range land in a dedicated underflow bucket, values
// at or above it in an overflow bucket; the exact min and max are
// tracked separately so the tails stay honest.
const (
	sketchAlpha    = 0.05 // relative quantile error bound within range
	sketchMinValue = 1e-6 // 1 µs — below any response time of interest
	sketchBuckets  = 277  // ceil(ln(1e12) / ln(gamma)) covers up to ~1e6
)

var (
	sketchGamma   = (1 + sketchAlpha) / (1 - sketchAlpha)
	sketchLnGamma = math.Log(sketchGamma)
	sketchInvLn   = 1 / sketchLnGamma
)

// Sketch is a fixed-size mergeable quantile sketch. The state is pure
// integer bucket counts plus the exact min/max, so Merge is exactly
// commutative and associative — merged sketches are byte-identical
// regardless of merge order, and a sketch merged from shards equals the
// single-stream sketch of the concatenated values. There is no stored
// float sum: Mean and Quantile are reconstructed from the bucket counts
// at query time, so they too are merge-order invariant.
//
// Quantile estimates carry a relative error of at most sketchAlpha (5%)
// for values in [1e-6, ~1e6); outside that range the sketch answers
// with the tracked exact min/max. A nil *Sketch is a valid disabled
// instrument. Construct with NewSketch; the zero value is not valid.
type Sketch struct {
	counts [sketchBuckets + 2]uint64 // [0] underflow, [1..sketchBuckets] log buckets, [last] overflow
	count  uint64
	min    float64 // +Inf while empty
	max    float64 // -Inf while empty
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch {
	return &Sketch{min: math.Inf(1), max: math.Inf(-1)}
}

// Reset empties the sketch in place.
func (s *Sketch) Reset() {
	if s == nil {
		return
	}
	clear(s.counts[:])
	s.count = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
}

// Observe records one value. Non-finite values are ignored — NaN and
// ±Inf carry no rank information and would poison min/max. Zero-alloc:
// the bucket array is part of the struct, so steady-state observation
// never touches the heap.
//
//vdc:hotpath fig6/obs-on
func (s *Sketch) Observe(v float64) {
	if s == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	s.count++
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if v < sketchMinValue { // includes zero and negatives
		s.counts[0]++
		return
	}
	idx := 1 + int(math.Log(v/sketchMinValue)*sketchInvLn)
	if idx > sketchBuckets {
		idx = sketchBuckets + 1 // overflow
	}
	s.counts[idx]++
}

// Merge folds o into s. The operation is exact: counts add, min/max
// take the extremes, so (a+b)+c == a+(b+c) and a+b == b+a bit for bit.
// o is not modified; a nil or empty o is a no-op.
func (s *Sketch) Merge(o *Sketch) {
	if s == nil || o == nil || o.count == 0 {
		return
	}
	s.count += o.count
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	for i := range s.counts {
		s.counts[i] += o.counts[i]
	}
}

// Count returns the number of observed values.
func (s *Sketch) Count() uint64 {
	if s == nil {
		return 0
	}
	return s.count
}

// Min returns the smallest observed value (0 while empty).
func (s *Sketch) Min() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observed value (0 while empty).
func (s *Sketch) Max() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	return s.max
}

// bucketRep is the geometric midpoint representative of log bucket i
// (1-based), the value minimizing worst-case relative error within the
// bucket.
func bucketRep(i int) float64 {
	return sketchMinValue * math.Exp((float64(i-1)+0.5)*sketchLnGamma)
}

// Mean estimates the mean from the bucket representatives (underflow
// counts at the exact min, overflow at the exact max). Because the
// summation order is the fixed bucket order and the state merges
// exactly, the estimate is identical however the sketch was assembled.
func (s *Sketch) Mean() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	total := 0.0
	if c := s.counts[0]; c > 0 {
		total += float64(c) * s.min
	}
	for i := 1; i <= sketchBuckets; i++ {
		if c := s.counts[i]; c > 0 {
			total += float64(c) * bucketRep(i)
		}
	}
	if c := s.counts[sketchBuckets+1]; c > 0 {
		total += float64(c) * s.max
	}
	return total / float64(s.count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1). The answer is a
// bucket representative clamped into [min, max], so the relative error
// is at most sketchAlpha within the sketch's range and the extreme
// quantiles (q=0, q=1) are exact. Returns 0 while empty.
func (s *Sketch) Quantile(q float64) float64 {
	if s == nil || s.count == 0 || math.IsNaN(q) {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := uint64(math.Ceil(q * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	cum := s.counts[0]
	if cum >= rank {
		return s.min
	}
	for i := 1; i <= sketchBuckets; i++ {
		cum += s.counts[i]
		if cum >= rank {
			v := bucketRep(i)
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max
}

// SketchSummary is the JSON form of a sketch: the headline statistics
// only, all zero while empty. Field order is fixed by the struct, so
// encoding/json renders it deterministically.
type SketchSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Summary snapshots the sketch's headline statistics.
func (s *Sketch) Summary() SketchSummary {
	if s == nil || s.count == 0 {
		return SketchSummary{}
	}
	return SketchSummary{
		Count: s.count,
		Mean:  s.Mean(),
		Min:   s.min,
		Max:   s.max,
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
	}
}
