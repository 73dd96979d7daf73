// Package stats provides the small statistical toolkit used across the
// repository: percentiles for response-time SLAs, moments, and the robust
// statistics behind the benchmark comparisons.
package stats

import (
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
	v, _ := PercentileScratch(xs, p, nil)
	return v
}

// PercentileScratch is Percentile selecting in scratch instead of a
// fresh copy of xs, and it returns the scratch for the caller's next
// call. It grows the scratch as append does, so a caller that keeps it
// allocates only while its windows reach new highs, and ever more
// rarely. What scratch held before is overwritten; xs is not modified.
func PercentileScratch(xs []float64, p float64, scratch []float64) (float64, []float64) {
	if len(xs) == 0 {
		return math.NaN(), scratch
	}
	buf := append(scratch[:0], xs...)
	lo, hi, frac := ranks(len(buf), p)
	selectRank(buf, lo)
	if lo == hi {
		return buf[lo], buf
	}
	// Nothing after lo sorts before buf[lo], so the hi-th (lo+1-th) order
	// statistic is the least of what follows it.
	next := buf[lo+1]
	for _, x := range buf[lo+2:] {
		if less(x, next) {
			next = x
		}
	}
	return buf[lo]*(1-frac) + next*frac, buf
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
