package quick

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"vdcpower/internal/check"
	"vdcpower/internal/mpc"
	"vdcpower/internal/obs"
	"vdcpower/internal/optimizer"
)

// sketchMergeFn is Sketch.Merge's shape, injectable for mutation tests.
type sketchMergeFn func(dst, src *obs.Sketch)

// sketchObserveFn is Sketch.Observe's shape, injectable for mutation
// tests.
type sketchObserveFn func(s *obs.Sketch, v float64)

// scorecardBuildFn builds one serialized scorecard from a seed.
type scorecardBuildFn func(seed int64) ([]byte, error)

// realSketchMerge and realSketchObserve adapt the methods to the
// injectable shapes.
func realSketchMerge(dst, src *obs.Sketch)       { dst.Merge(src) }
func realSketchObserve(s *obs.Sketch, v float64) { s.Observe(v) }

// sketchValues draws n log-uniform samples spanning the sketch's range,
// with a few out-of-range outliers mixed in so the underflow/overflow
// buckets participate in the laws too.
func sketchValues(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch r.Intn(10) {
		case 0:
			out[i] = uniform(r, 1e-9, 1e-6) // underflow bucket
		case 1:
			out[i] = uniform(r, 1e6, 1e8) // overflow bucket
		default:
			out[i] = math.Exp(uniform(r, math.Log(1e-5), math.Log(1e5)))
		}
	}
	return out
}

// filledSketch observes n random samples into a fresh sketch.
func filledSketch(r *rand.Rand, observe sketchObserveFn, n int) *obs.Sketch {
	s := obs.NewSketch()
	for _, v := range sketchValues(r, n) {
		observe(s, v)
	}
	return s
}

// sketchEqual compares two sketches by value: bucket counts, count,
// min, max. Sketch is a comparable struct, so this is exact.
func sketchEqual(a, b *obs.Sketch) bool { return *a == *b }

// sketchMergeCommutative: merging A into B and B into A must yield the
// same sketch — Merge adds bucket counts and has no order-dependent
// state.
func sketchMergeCommutative(merge sketchMergeFn, seed int64) error {
	r := NewRand(seed)
	a := filledSketch(r, realSketchObserve, 1+r.Intn(400))
	b := filledSketch(r, realSketchObserve, 1+r.Intn(400))
	ab, ba := *a, *b
	merge(&ab, b)
	merge(&ba, a)
	if !sketchEqual(&ab, &ba) {
		return fmt.Errorf("merge not commutative: a+b count=%d mean=%g, b+a count=%d mean=%g",
			ab.Count(), ab.Mean(), ba.Count(), ba.Mean())
	}
	return nil
}

// sketchMergeAssociative: (A+B)+C == A+(B+C).
func sketchMergeAssociative(merge sketchMergeFn, seed int64) error {
	r := NewRand(seed)
	a := filledSketch(r, realSketchObserve, 1+r.Intn(300))
	b := filledSketch(r, realSketchObserve, 1+r.Intn(300))
	c := filledSketch(r, realSketchObserve, 1+r.Intn(300))
	left := *a // (a+b)+c
	merge(&left, b)
	merge(&left, c)
	bc := *b // a+(b+c)
	merge(&bc, c)
	right := *a
	merge(&right, &bc)
	if !sketchEqual(&left, &right) {
		return fmt.Errorf("merge not associative: (a+b)+c count=%d mean=%g, a+(b+c) count=%d mean=%g",
			left.Count(), left.Mean(), right.Count(), right.Mean())
	}
	return nil
}

// sketchMergeVsSingleStream: splitting one stream at a random point,
// sketching the halves separately, and merging must equal sketching the
// whole stream — the partitioned path loses nothing.
func sketchMergeVsSingleStream(observe sketchObserveFn, merge sketchMergeFn, seed int64) error {
	r := NewRand(seed)
	vals := sketchValues(r, 2+r.Intn(500))
	cut := 1 + r.Intn(len(vals)-1)
	single := obs.NewSketch()
	for _, v := range vals {
		observe(single, v)
	}
	left, right := obs.NewSketch(), obs.NewSketch()
	for _, v := range vals[:cut] {
		observe(left, v)
	}
	for _, v := range vals[cut:] {
		observe(right, v)
	}
	merge(left, right)
	if !sketchEqual(left, single) {
		return fmt.Errorf("merged halves (count=%d mean=%g) != single stream (count=%d mean=%g), cut at %d/%d",
			left.Count(), left.Mean(), single.Count(), single.Mean(), cut, len(vals))
	}
	return nil
}

// realScorecardBuild feeds one seeded synthetic fact stream into a
// fresh scorecard and serializes it: the init fact's applications, then
// per step a control fact per application, a step fact with power and
// solve tallies, and a pass fact every few steps. Open-loop transitions
// put records in the audit ring.
func realScorecardBuild(seed int64) ([]byte, error) {
	return scorecardBuildWith(seed, func(names []string) []string { return names })
}

// scorecardBuildWith parameterizes the init fact's application order so
// a mutation test can inject a nondeterministic (map-ordered) variant.
func scorecardBuildWith(seed int64, order func(names []string) []string) ([]byte, error) {
	r := NewRand(seed)
	sc := obs.New(obs.Config{Label: "quick", SLOTargetSec: 1, FastWindow: 8, SlowWindow: 32, AuditCapacity: 16})
	apps := order([]string{"App1", "App2", "App3"})
	sc.Observe(check.Event{Kind: check.EvInit, Step: -1, Apps: apps, SetpointSec: uniform(r, 0.5, 1.5)})
	steps := 30 + r.Intn(40)
	var solve mpc.SolveStats
	for k := 0; k < steps; k++ {
		held, open := r.Intn(8) == 0, r.Intn(6) == 0
		for i, app := range apps {
			sc.Observe(check.Event{Kind: check.EvControl, Step: k, Control: check.ControlObservation{
				App: app, Index: i, Held: held, OpenLoop: open, T90: uniform(r, 0.2, 2.0),
				Residual: uniform(r, -0.2, 0.2), HasResidual: true}})
		}
		solve.Solves += len(apps)
		solve.WarmAttempts += len(apps) - r.Intn(2)
		solve.ColdRetries += r.Intn(2)
		sc.Observe(check.Event{Kind: check.EvStep, Step: k, PowerW: uniform(r, 500, 5000), HasPower: true, Solve: solve})
		if k%10 == 9 {
			sc.Observe(check.Event{Kind: check.EvConsolidate, Step: k, Policy: "IPAC", Nodes: r.Intn(100),
				Report: &optimizer.Report{Migrations: r.Intn(6), Vetoed: r.Intn(2)}})
		}
	}
	var b bytes.Buffer
	if err := sc.WriteJSON(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// scorecardDeterministic: building the same seeded scorecard twice must
// serialize byte-identically — no map iteration, timestamps, or pointer
// identity may leak into the document.
func scorecardDeterministic(build scorecardBuildFn, seed int64) error {
	a, err := build(seed)
	if err != nil {
		return err
	}
	b, err := build(seed)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("same-seed scorecards differ (%d vs %d bytes)", len(a), len(b))
	}
	return nil
}
