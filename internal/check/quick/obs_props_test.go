package quick

import (
	"testing"

	"vdcpower/internal/obs"
)

// Mutation tests for the observability laws: each law must catch a
// deliberately broken sketch or scorecard implementation.

// TestSketchCommutativeCatchesAsymmetricMerge: a merge that sneaks an
// extra observation in when the source is larger than the destination
// depends on argument order.
func TestSketchCommutativeCatchesAsymmetricMerge(t *testing.T) {
	broken := func(dst, src *obs.Sketch) {
		if src.Count() > dst.Count() {
			dst.Observe(1.0) // "fix up" the bigger side: order-dependent
		}
		dst.Merge(src)
	}
	expectCaught(t, "sketch-merge-commutative", func(s int64) error {
		return sketchMergeCommutative(broken, s)
	})
}

// TestSketchAssociativeCatchesStatefulMerge: a merge that records the
// source's current mean as an extra sample gives grouping-dependent
// results — (a+b)+c sees b's raw mean, a+(b+c) sees the merged one.
func TestSketchAssociativeCatchesStatefulMerge(t *testing.T) {
	broken := func(dst, src *obs.Sketch) {
		m := src.Mean()
		dst.Merge(src)
		dst.Observe(m)
	}
	expectCaught(t, "sketch-merge-associative", func(s int64) error {
		return sketchMergeAssociative(broken, s)
	})
}

// TestSingleStreamCatchesLossyObserve: an observe that drops every 10th
// sample loses different samples in the split streams than in the
// single stream, so merged halves no longer equal the whole.
func TestSingleStreamCatchesLossyObserve(t *testing.T) {
	calls := 0
	broken := func(s *obs.Sketch, v float64) {
		calls++
		if calls%10 == 0 {
			return
		}
		s.Observe(v)
	}
	expectCaught(t, "sketch-merge-vs-single-stream", func(s int64) error {
		return sketchMergeVsSingleStream(broken, realSketchMerge, s)
	})
}

// TestSingleStreamCatchesDoubleCountingMerge: a merge applied twice
// inflates the merged side's counts.
func TestSingleStreamCatchesDoubleCountingMerge(t *testing.T) {
	broken := func(dst, src *obs.Sketch) {
		dst.Merge(src)
		dst.Merge(src)
	}
	expectCaught(t, "sketch-merge-vs-single-stream(double-merge)", func(s int64) error {
		return sketchMergeVsSingleStream(realSketchObserve, broken, s)
	})
}

// TestScorecardDeterministicCatchesMapOrderedRegistration: listing the
// init fact's apps by iterating a map leaks Go's randomized map order
// into the app indices, so same-seed builds route observations to
// different apps.
func TestScorecardDeterministicCatchesMapOrderedRegistration(t *testing.T) {
	broken := func(seed int64) ([]byte, error) {
		return scorecardBuildWith(seed, func(names []string) []string {
			set := map[string]bool{}
			for _, n := range names {
				set[n] = true
			}
			apps := make([]string, 0, len(names))
			for n := range set { // map order: nondeterministic
				apps = append(apps, n)
			}
			return apps
		})
	}
	expectCaught(t, "scorecard-deterministic", func(s int64) error {
		return scorecardDeterministic(broken, s)
	})
}

// TestObsLawsPassRealImplementation pins the registered names so the
// registry keeps exporting the observability laws.
func TestObsLawsPassRealImplementation(t *testing.T) {
	want := map[string]bool{
		"obs/sketch-merge-commutative":      false,
		"obs/sketch-merge-associative":      false,
		"obs/sketch-merge-vs-single-stream": false,
		"obs/scorecard-deterministic":       false,
	}
	for _, p := range Properties() {
		if _, ok := want[p.Name]; ok {
			want[p.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("law %q not registered", name)
		}
	}
}
