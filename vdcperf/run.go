package main

import (
	"fmt"
	"math"
	"runtime"

	"vdcpower/internal/stats"
	"vdcpower/internal/telemetry"
)

// sizes fixes the work a run always does, whatever its --seconds.
type sizes struct {
	units         int // testbed constructions or dc traces, each made from its own seed
	periods       int // control periods per construction
	refPeriods    int // periods of the untraced reference construction
	dcVMs, dcDays int // size of each dc trace
	viewers       int // serve-live's dashboard viewers, each refreshing once a second
}

// traced returns the smaller sizes of the traced run. Its reference
// construction is as long as the others, so that trace.overhead_ratio
// compares like with like.
func (s sizes) traced() sizes {
	s.units, s.refPeriods = 2, s.periods
	return s
}

// fixedRounds is how many complete passes every unit gets, whatever
// --seconds says. The passes of one unit repeat the same work, seconds
// apart, so the faster of a step's first two passes sheds most of the
// slowdowns other tenants of a shared host cause for a few seconds at a
// time.
const fixedRounds = 2

// defaultSeed is the seed whose digests are recorded.
const defaultSeed = 1

// recordedDigests are the digests of each workload's fixed work at the
// default seed and its declared sizes. A change that alters any
// simulated output changes them.
var recordedDigests = map[string]uint64{
	"testbed-steady": 0x7930bd0a15e9ccb1,
	"testbed-surge":  0x9a4e8576a73726fd,
	"dc-consolidate": 0x5d0a3d7a9d607e91,
	"serve-live":     0x7930bd0a15e9ccb1, // serve-live steps the same testbeds as testbed-steady
}

// run is one benchmark process's measurement state. The workload fills
// it; measure turns it into metrics.
type run struct {
	name     string         // workload name
	clock    func() float64 // seconds; the wall clock outside tests
	seed     int64
	seconds  float64 // the measured phase lasts at least this long
	size     sizes
	declared sizes             // the workload's untraced sizes, at which digests are recorded
	tracer   *telemetry.Tracer // nil on the untraced run

	stepSec  float64      // simulated seconds one step covers
	units    []unit       // per construction or trace
	passes   []passRecord // every pass of the replay, in order
	refSteps []float64    // host ms per step of the untraced reference
	sim      outcome      // simulated outcomes of the fixed work
	rssMB    float64      // peak resident set at the end of the fixed rounds
	digest   uint64
	ms       runtime.MemStats
	kernel   *calKernel
	calSink  float64 // keeps the calibration kernel's result alive

	attempted, failed int
	problems          []string

	layer map[string]float64 // per-layer metrics, traced run only
}

// unit is what the first pass over one testbed construction or dc trace
// did.
type unit struct {
	steps  int    // steps of the first pass; a later pass with fewer was cut short
	allocs uint64 // heap allocations over them
}

// passRecord is the host timing of one pass.
type passRecord struct {
	unit   int
	stepMS []float64 // host ms per step
	setupS float64   // host s of the set-up
	scale  float64   // calNominalMS over the calibration kernel's time around the pass
}

// outcome is the simulated result of one or more passes.
type outcome struct {
	energyWh, hours float64 // cluster energy over the simulated time
	slots, misses   int     // SLO checks, and those missed
	settled         int     // T90 samples in the tracking error (testbeds only)
	errSum          float64 // sum of |T90 − set point| over them, s
}

func (o *outcome) add(p outcome) {
	o.energyWh += p.energyWh
	o.hours += p.hours
	o.slots += p.slots
	o.misses += p.misses
	o.settled += p.settled
	o.errSum += p.errSum
}

func (o outcome) powerW() float64  { return o.energyWh / o.hours }
func (o outcome) missPct() float64 { return 100 * float64(o.misses) / float64(o.slots) }

func newRun(wl benchWorkload, clock func() float64, seed int64, seconds float64, traced bool) *run {
	r := &run{name: wl.name, clock: clock, seed: seed, seconds: seconds, size: wl.size, declared: wl.size, layer: map[string]float64{}}
	if traced {
		r.size = wl.size.traced()
		// Large enough that no span of a traced run is dropped.
		r.tracer = telemetry.New(clock, 1<<20)
	}
	return r
}

// traced reports whether this is the traced run.
func (r *run) traced() bool { return r.tracer != nil }

// check counts one operation, failing it with the message when ok is
// false.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// checkHashes checks a pass's step hashes against an earlier run's, as
// far as both go.
func (r *run) checkHashes(got, want []uint64, what string) {
	for k := 0; k < len(got) && k < len(want); k++ {
		r.check(got[k] == want[k], "%s step %d: outputs differ from the earlier run", what, k)
	}
}

// mallocs returns the cumulative heap allocation count. It reads into a
// MemStats the run owns, so the read itself allocates nothing, and must
// be called from one goroutine at a time. A read stops the world for
// tens of microseconds.
func (r *run) mallocs() uint64 {
	runtime.ReadMemStats(&r.ms)
	return r.ms.Mallocs
}

// passSpec is one pass of a replayed workload: a unit made from its seed
// and driven for its steps.
type passSpec struct {
	index  int      // which unit
	want   []uint64 // step hashes of an earlier run of this unit
	stopAt float64  // if > 0, the pass ends once the clock reaches it
}

// passOut is what one pass produced.
type passOut struct {
	hashes []uint64  // per-step output hashes
	stepMS []float64 // host ms per step
	setupS float64   // host s of the set-up
	allocs uint64    // heap allocations over the steps
	out    outcome
}

// replay runs the fixed work, one pass per unit, and fixedRounds-1 more
// rounds of it, then replays the units in turn until r.seconds have
// passed since it started. Every step must hash equal to the first pass
// of its unit, and unit 0's first steps to ref. It records each pass's
// timings with the calibration around it, the first passes' allocations
// and outcomes, and the peak resident set once the fixed rounds are done,
// and checks the fixed work's digest.
func (r *run) replay(n int, ref []uint64, pass func(passSpec) (passOut, error)) error {
	r.units = make([]unit, n)
	r.kernel = newCalKernel()
	var cals []float64
	first := make([][]uint64, n)
	start := r.clock()
	for i := 0; i < fixedRounds*n || r.clock()-start < r.seconds; i++ {
		p, fixed := passSpec{index: i % n}, i < n
		switch {
		case i >= fixedRounds*n:
			p.want, p.stopAt = first[p.index], start+r.seconds
		case !fixed:
			p.want = first[p.index]
		case p.index == 0:
			p.want = ref
		}
		cals = append(cals, r.calibrate())
		out, err := pass(p)
		if err != nil {
			return err
		}
		r.checkHashes(out.hashes, p.want, fmt.Sprintf("%s unit %d", r.name, p.index))
		if fixed {
			first[p.index] = out.hashes
			r.units[p.index] = unit{steps: len(out.stepMS), allocs: out.allocs}
			r.sim.add(out.out)
		}
		r.passes = append(r.passes, passRecord{unit: p.index, stepMS: out.stepMS, setupS: out.setupS})
		if i == fixedRounds*n-1 {
			if r.rssMB, err = peakRSSMB(); err != nil {
				return err
			}
		}
	}
	cals = append(cals, r.calibrate())
	r.layer["host.calibration_ms"] = stats.Median(cals)
	for i := range r.passes {
		r.passes[i].scale = calNominalMS / ((cals[i] + cals[i+1]) / 2)
	}
	var all []uint64
	for _, h := range first {
		all = append(all, h...)
	}
	r.digest = hashWords(all...)
	if r.seed == defaultSeed && r.size == r.declared && !r.traced() {
		want, ok := recordedDigests[r.name]
		r.check(ok && r.digest == want, "%s digest %#x at seed %d, recorded %#x", r.name, r.digest, r.seed, want)
	}
	return nil
}

// complete reports whether the pass ran as many steps as its unit's
// first; a replay cut short by the deadline is too short to compare.
func (r *run) complete(p passRecord) bool { return len(p.stepMS) == r.units[p.unit].steps }

// allSteps returns the unscaled host ms of every step of the run's
// complete passes.
func (r *run) allSteps() []float64 {
	var out []float64
	for _, p := range r.passes {
		if r.complete(p) {
			out = append(out, p.stepMS...)
		}
	}
	return out
}

// setups returns the unscaled host s of every pass's set-up.
func (r *run) setups() []float64 {
	out := make([]float64, len(r.passes))
	for i, p := range r.passes {
		out[i] = p.setupS
	}
	return out
}

// endToEnd folds the untraced run into the end-to-end metrics. Host
// timings are scaled by their pass's calibration. The median is over all
// steps of the run's complete passes: other tenants slow fewer than half
// of them. The tail and the speed-up are over each step's faster time in
// its unit's first two passes, because a slowdown of a few seconds moves
// the slowest steps of a run and their sum by a third or more. The tail
// is the p90, not the p99, because the faster of two passes still keeps
// some slowdowns. Allocations, SLO misses and power are over the first
// round.
func (r *run) endToEnd() (map[string]float64, error) {
	var steps, setups []float64
	fast := make([][]float64, len(r.units)) // per unit: each step's faster scaled ms
	timed := make([]int, len(r.units))      // per unit: complete passes seen
	for _, p := range r.passes {
		setups = append(setups, p.setupS*p.scale)
		if !r.complete(p) {
			continue
		}
		f, n := fast[p.unit], timed[p.unit]
		for k, ms := range p.stepMS {
			ms *= p.scale
			steps = append(steps, ms)
			if n == 0 {
				f = append(f, ms)
			} else if n < fixedRounds {
				f[k] = math.Min(f[k], ms)
			}
		}
		fast[p.unit], timed[p.unit] = f, n+1
	}
	var fastest []float64
	var allocs uint64
	firstSteps := 0
	for i, u := range r.units {
		fastest = append(fastest, fast[i]...)
		allocs += u.allocs
		firstSteps += u.steps
	}
	m := map[string]float64{
		"peak_rss_mb":     r.rssMB,
		"power_w":         r.sim.powerW(),
		"slo_miss_pct":    r.sim.missPct(),
		"allocs_per_step": float64(allocs) / float64(firstSteps),
		"sim_speedup":     float64(len(fastest)) * r.stepSec / (sum(fastest) / 1000),
	}
	return m, quantiles(m,
		pick{"setup_s", setups, 0.5},
		pick{"step_p50_ms", steps, 0.5},
		pick{"step_p90_ms", fastest, 0.9},
	)
}

// perLayerMetrics completes the traced run's layer map: the tracer
// overhead, and 0 for every layer the workload never called.
func (r *run) perLayerMetrics() (map[string]float64, error) {
	traced, err := quantile(r.allSteps(), 0.5)
	if err != nil {
		return nil, fmt.Errorf("traced step median: %w", err)
	}
	untraced, err := quantile(r.refSteps, 0.5)
	if err != nil {
		return nil, fmt.Errorf("untraced step median: %w", err)
	}
	r.layer["trace.overhead_ratio"] = traced / untraced
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.Name] = true
		if _, ok := r.layer[d.Name]; !ok {
			r.layer[d.Name] = 0
		}
	}
	for name := range r.layer {
		if !known[name] {
			return nil, fmt.Errorf("layer metric %q is not declared in perLayer", name)
		}
	}
	return r.layer, nil
}
