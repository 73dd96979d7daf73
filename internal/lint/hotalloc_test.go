package lint

import "testing"

// TestHotallocLoopAllocations: allocations inside a root's loops are
// flagged with the declared scenario; one-time setup before the loop is
// not.
func TestHotallocLoopAllocations(t *testing.T) {
	got := analyzeFixture(t, "fixturemod/internal/hot", `package hot

// Solve is the inner loop.
//
//vdc:hotpath mpc/solve
func Solve(xs []float64) []float64 {
	buf := make([]float64, 0, len(xs)) // setup: outside the loop, exempt
	var out []float64
	for _, x := range xs {
		tmp := make([]float64, 2)
		tmp[0] = x
		out = append(out, tmp...)
	}
	_ = buf
	return out
}
`, HotallocAnalyzer())
	wantFindings(t, got, "hotalloc",
		"make allocates in a hot path (vdcbench scenario mpc/solve)",
		"append may grow its backing array in a hot path (vdcbench scenario mpc/solve)")
}

// TestHotallocTransitiveAndRecursive: a package-local callee of a hot
// loop is hot over its whole body, and a recursive root becomes
// whole-body hot through its own call edge.
func TestHotallocTransitiveAndRecursive(t *testing.T) {
	got := analyzeFixture(t, "fixturemod/internal/hot", `package hot

//vdc:hotpath packing/minslack
func Search(n int) {
	for i := 0; i < n; i++ {
		helper(i)
	}
}

func helper(i int) {
	_ = map[int]bool{i: true} // whole body hot via the call edge
}

//vdc:hotpath queueing/mva
func Recurse(n int) {
	if n == 0 {
		return
	}
	_ = []int{n} // outside any loop, but recursion makes the body hot
	for i := 0; i < n; i++ {
		Recurse(n - 1)
	}
}
`, HotallocAnalyzer())
	wantFindings(t, got, "hotalloc",
		"map literal allocates in a hot path (vdcbench scenario packing/minslack)",
		"slice literal allocates in a hot path (vdcbench scenario queueing/mva)")
}

// TestHotallocClosureFmtBoxing: closures, fmt calls, and interface
// boxing inside hot loops are flagged; explicit conversions are not.
func TestHotallocClosureFmtBoxing(t *testing.T) {
	got := analyzeFixture(t, "fixturemod/internal/hot", `package hot

import "fmt"

func sink(v any) {}

//vdc:hotpath fig6/energy-per-vm
func Drain(ids []int) {
	for _, id := range ids {
		f := func() int { return id } // closure capture
		_ = f()
		_ = fmt.Sprintf("vm%d", id)
		sink(id) // boxes id into any
		_ = float64(id)
	}
}
`, HotallocAnalyzer())
	wantFindings(t, got, "hotalloc",
		"function literal allocates a closure in a hot path (vdcbench scenario fig6/energy-per-vm)",
		"fmt.Sprintf formats through interfaces and allocates in a hot path (vdcbench scenario fig6/energy-per-vm)",
		"argument boxes a concrete value into an interface in a hot path (vdcbench scenario fig6/energy-per-vm)")
}

// TestHotallocColdPathsAndReuse: panic messages, error-typed returns,
// and the append(x[:0], ...) reuse idiom are exempt.
func TestHotallocColdPathsAndReuse(t *testing.T) {
	got := analyzeFixture(t, "fixturemod/internal/hot", `package hot

import "fmt"

//vdc:hotpath mpc/solve
func Iterate(xs []float64, scratch []float64) ([]float64, error) {
	for i, x := range xs {
		if x < 0 {
			return nil, fmt.Errorf("negative input %v at %d", x, i) // aborting path
		}
		if x > 1e9 {
			panic(fmt.Sprintf("wild input %v", x)) // aborting path
		}
		scratch = append(scratch[:0], x) // backing-array reuse
	}
	return scratch, nil
}
`, HotallocAnalyzer())
	wantFindings(t, got, "hotalloc")
}

// TestHotallocMalformedAnnotation: a //vdc:hotpath without a valid
// scenario slug is itself a finding, and an unannotated package stays
// silent.
func TestHotallocMalformedAnnotation(t *testing.T) {
	got := analyzeFixture(t, "fixturemod/internal/hot", `package hot

//vdc:hotpath Not A Slug!
func Bad(xs []int) {
	for range xs {
		_ = []int{1}
	}
}
`, HotallocAnalyzer())
	wantFindings(t, got, "hotalloc",
		"malformed //vdc:hotpath annotation")

	got = analyzeFixture(t, "fixturemod/internal/cold", `package cold

func Fine(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}
`, HotallocAnalyzer())
	wantFindings(t, got, "hotalloc")
}

// TestHotallocSuppression: a justified //lint:ignore hotalloc directive
// silences exactly its line.
func TestHotallocSuppression(t *testing.T) {
	got := analyzeFixture(t, "fixturemod/internal/hot", `package hot

//vdc:hotpath mpc/solve
func Solve(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		//lint:ignore hotalloc out is preallocated by the caller contract
		out = append(out, x)
		out = append(out, -x) // still flagged
	}
	return out
}
`, HotallocAnalyzer())
	wantFindings(t, got, "hotalloc",
		"append may grow its backing array")
}

// TestHotallocRootWithoutLoop: a root with no for or range statement
// runs once per event, so its caller's loop is its loop: its whole body
// is hot, and so is every package-local function it calls. A root with
// a loop keeps its set-up exempt.
func TestHotallocRootWithoutLoop(t *testing.T) {
	got := analyzeFixture(t, "fixturemod/internal/hot", `package hot

type card struct{ steps int }

//vdc:hotpath fig6/obs-on
func (c *card) Observe(kind int) {
	switch kind {
	case 0:
		c.steps++
		_ = make([]int, 4) // no loop in the root: hot
	case 1:
		c.fold(kind)
	}
}

func (c *card) fold(kind int) {
	_ = []int{kind} // hot through the call edge
}

//vdc:hotpath mpc/solve
func Copy(xs []float64) []float64 {
	buf := make([]float64, len(xs)) // set-up before the loop: exempt
	for i := range xs {
		buf[i] = xs[i]
	}
	return buf
}
`, HotallocAnalyzer())
	wantFindings(t, got, "hotalloc",
		"make allocates in a hot path (vdcbench scenario fig6/obs-on)",
		"slice literal allocates in a hot path (vdcbench scenario fig6/obs-on)")
}
