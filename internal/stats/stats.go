// Package stats provides the small statistical toolkit used across the
// repository: percentiles for response-time SLAs, running moments for
// monitors, and simple summaries for experiment reporting.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks, in sort.Float64s's order
// (NaN first). It returns NaN for an empty input. The input slice is not
// modified.
//
// It selects the two ranks it needs instead of sorting, and returns
// exactly what interpolating the sorted copy would.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	lo, hi, frac := ranks(len(xs), p)
	buf := make([]float64, len(xs))
	copy(buf, xs)
	selectRank(buf, lo)
	if lo == hi {
		return buf[lo]
	}
	// Nothing after lo sorts before buf[lo], so the hi-th (lo+1-th) order
	// statistic is the least of what follows it.
	next := buf[lo+1]
	for _, x := range buf[lo+2:] {
		if less(x, next) {
			next = x
		}
	}
	return buf[lo]*(1-frac) + next*frac
}

// percentileSorted computes a percentile of an already-sorted slice.
func percentileSorted(sorted []float64, p float64) float64 {
	lo, hi, frac := ranks(len(sorted), p)
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ranks places the p-th percentile of n sorted values frac of the way
// from the lo-th to the hi-th, clamping p into [0, 100].
func ranks(n int, p float64) (lo, hi int, frac float64) {
	if n == 1 {
		return 0, 0, 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	hi = int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// less is sort.Float64s's order: NaN before everything else.
func less(a, b float64) bool { return a < b || (math.IsNaN(a) && !math.IsNaN(b)) }

// selectRank reorders a so that a[k] holds the element sort.Float64s would
// put there, nothing before it sorts after it and nothing after it sorts
// before it. It is Hoare's quickselect with a median-of-three pivot,
// sorting the range that is left once it is short, or once it fails to
// shrink fast enough, which bounds the worst case at O(n log n).
func selectRank(a []float64, k int) {
	l, r := 0, len(a)-1
	for budget := 2 * bits.Len(uint(len(a))); r-l >= 12 && budget > 0; budget-- {
		m := l + (r-l)/2
		if less(a[m], a[l]) {
			a[m], a[l] = a[l], a[m]
		}
		if less(a[r], a[l]) {
			a[r], a[l] = a[l], a[r]
		}
		if less(a[r], a[m]) {
			a[r], a[m] = a[m], a[r]
		}
		pivot := a[m]
		i, j := l, r
		for i <= j {
			for less(a[i], pivot) {
				i++
			}
			for less(pivot, a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[l..j] sort no later than pivot, a[i..r] no earlier, and
		// anything strictly between j and i equals it.
		switch {
		case k <= j:
			r = j
		case k >= i:
			l = i
		default:
			return
		}
	}
	sort.Float64s(a[l : r+1])
}

// Mean returns the arithmetic mean of xs, or NaN for an empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (n-1 denominator).
// It returns 0 for inputs with fewer than two elements.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Running accumulates streaming moments with Welford's algorithm.
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of samples seen.
func (r *Running) N() int { return r.n }

// Mean returns the running mean, or NaN if no samples were added.
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.mean
}

// StdDev returns the running sample standard deviation.
func (r *Running) StdDev() float64 {
	if r.n < 2 {
		return 0
	}
	return math.Sqrt(r.m2 / float64(r.n-1))
}

// Min returns the smallest sample, or NaN if none were added.
func (r *Running) Min() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.min
}

// Max returns the largest sample, or NaN if none were added.
func (r *Running) Max() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.max
}

// Summary captures the distributional digest reported by the experiment
// harnesses.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P50    float64
	P90    float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary of xs. The input is not modified.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		nan := math.NaN()
		s.Mean, s.StdDev, s.Min, s.P50, s.P90, s.P99, s.Max = nan, 0, nan, nan, nan, nan, nan
		return s
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	s.Mean = Mean(xs)
	s.StdDev = StdDev(xs)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.P50 = percentileSorted(sorted, 50)
	s.P90 = percentileSorted(sorted, 90)
	s.P99 = percentileSorted(sorted, 99)
	return s
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f",
		s.N, s.Mean, s.StdDev, s.Min, s.P50, s.P90, s.P99, s.Max)
}
