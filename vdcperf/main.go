// Command vdcperf is the repository's end-to-end benchmark. It runs one
// named workload against the simulated two-level power manager, checks
// that the outputs are correct, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 18701, "failed": 0, "metrics": {"setup_s": {"value": 0.118, "unit": "s"}, ...}}
//
// Usage, from the repository root (run.sh builds the program under
// .bench_build/ first; the program refuses to run unless the
// BENCHMARK.json it finds there matches its own metric definitions):
//
//	bash vdcperf/run.sh --workload testbed-steady --seed 1 --seconds 25 --trace 0
//	bash vdcperf/run.sh --workload dc-consolidate --seed 3 --seconds 25 --trace 1
//
// Its tests are a module of their own: cd vdcperf && go test ./...
//
// # Workloads
//
// Each workload runs in its own process from one seed, which makes the
// inputs: one seed per unit (a testbed construction or a dc trace). The
// program under test receives only those inputs. A testbed construction
// whose identified model says more CPU does not lower a tier's response
// time is skipped (see constructionSeeds): its controllers starve that
// tier, and one such unit moves a whole run's metrics.
//
//   - testbed-steady: the paper testbed (testbed.DefaultConfig: 8 two-tier
//     apps on 4 servers, 40 closed-loop clients per app with 1 s think
//     time, set point 1.0 s, T = 4 s). 14 constructions run 150 control
//     periods each, one tb.Run(Period) call per period. Why: the DES
//     substrate (devs, appsim) does most of the work and the optimizer
//     none, so a substrate change shows here.
//   - testbed-surge: 10 such constructions under a staggered, repeating
//     Fig. 3 surge: before schedule period k, app i has 100 clients when
//     (k+40i)/150 is odd and 40 otherwise, and App2's set point cycles
//     0.8/1.0/1.2 s every 100 periods. Construction i runs schedule
//     periods (i mod 2)·150 to (i mod 2)·150+149, so each pair covers the
//     300-period cycle. Why: deeper PS queues, a larger event heap,
//     capacity churn and a busier controller; a substrate change that
//     helps shallow queues but hurts deep ones shows here.
//   - dc-consolidate: dcsim.Run with IPAC over the default 3000-server
//     fleet, once on each of 10 seeded 2000-VM, 14-day, 15-min traces,
//     each generated outside the timing. Why: the optimizer (packing,
//     optimizer, cluster, power) dominates and the DES is idle, so a
//     substrate change should show no change here.
//   - serve-live: the constructions of testbed-steady, each wrapped by
//     serve.New with its observers (telemetry tracer, obs scorecard)
//     always on; this goroutine calls Server.Step back to back, 150 times
//     per server, so the digest equals testbed-steady's.
//     A second goroutine plays 10 viewers of the dashboard that serve
//     serves at /, the repository's only client of its API: each viewer
//     refreshes once a second, and a refresh fetches /status,
//     /history?n=200, /scorecard and /timings one after another, as the
//     dashboard does. The viewers' phases are spread evenly, so a
//     refresh is due every 0.1 s (an open loop), over one loopback
//     keep-alive connection to the server being stepped. The dashboard
//     sends no writes, so neither does the load. The number of viewers
//     is a choice, not a measurement. Why: the only workload with
//     observers and the serve mutex on the step path, and with reads
//     contending against stepping.
//
// Each unit's first pass is the run's fixed work, whose simulated
// outcomes and digest are checked. Every unit then gets a second pass,
// whatever --seconds says, and the run replays the units in turn until
// --seconds have passed; at the declared sizes the two rounds take from
// half to four fifths of 25 s, depending on how fast the shared host
// runs, and the replays fill the rest. Many short units rather than a
// few long ones, because the simulated outcomes and the host cost per
// step vary more between units than within one. The optimizer is left
// out of the testbed workloads on purpose: on the 4-server testbed IPAC
// never migrates a VM.
//
// The serve-live servers are young (150 periods), so their tracer rings
// hold far fewer spans than a long-running server's, and /timings, which
// folds them all, is cheaper here than in a long deployment. Each
// Server.Step arms a 10 s watchdog timer that keeps the server reachable
// until it fires, so the servers stepped in the last 10 s stay in memory,
// the more of them the faster the host; serve-live therefore keeps every
// server of the fixed rounds reachable until they end, and its
// peak_rss_mb covers all 28 of them.
//
// # End-to-end metrics (--trace 0)
//
// Measured with tracing off. A step is one control period (testbed), one
// Server.Step call (serve-live) or one trace step of dcsim, the gap
// between OnStep callbacks. The host's speed drifts (see calib.go), so
// every host timing is scaled by the calibration kernel timed around its
// pass. The step median is over all steps of the run's complete passes:
// other tenants of a shared host slow fewer than half of them. The tail
// and the speed-up are over each step's faster time in its unit's two
// fixed rounds, because a few seconds of other tenants' load move the
// slowest steps of a run, and their sum, by a third or more. The tail is
// the 90th percentile, because the faster of two passes still keeps some
// of those slowdowns: the 99th moved by up to half between runs of the
// same seed, against 5% for the 90th. A percentile needs at least 10
// samples beyond it. On dc-consolidate the consolidation passes, a few
// percent of the steps but most of their time, show in sim_speedup rather
// than in the p90. Allocations, SLO misses and power are over the fixed
// work; the peak resident set is read when the fixed rounds end. The
// bound is the share by which a metric may worsen against the parent
// commit's median before a change counts as a regression. On the shared
// two-vCPU virtual machine the bounds were set on, the spread between ten
// runs with different seeds (the distance between the quartiles over the
// median) reached 13% for a scaled host timing, 8% for peak RSS, and 5%
// for a simulated or counted metric, which varies with the seed alone.
//
//	setup_s          s      lower   0.25  median set-up: testbed.New (+ serve.New), or dcsim.Run up to its first pass or step
//	sim_speedup      s/s    higher  0.20  simulated seconds per host second of the fixed rounds' faster step times
//	step_p50_ms      ms     lower   0.20  median host time over all steps of the run
//	step_p90_ms      ms     lower   0.20  90th percentile of the fixed rounds' faster step times
//	allocs_per_step  count  lower   0.06  heap allocations per step of the fixed work
//	peak_rss_mb      MB     lower   0.20  peak resident set (VmHWM) when the fixed rounds end
//	power_w          W      lower   0.08  simulated mean cluster power over the fixed work
//	slo_miss_pct     %      lower   0.08  simulated share of the fixed work's (app, period) with T90 > 1.1 × set point;
//	                                      on dc-consolidate, of (active server, step) overloaded
//
// The simulated metrics are exact for a seed; the digest checks that.
// Their bounds must still cover how much they vary between seeds, since
// two sets of runs may use different seeds. The request latencies of
// serve-live are per-layer metrics only, because every end-to-end metric
// is reported by every workload; a refresh that takes longer than 1 s
// fails the run.
//
// A run fails an operation when a step or request returns an error or a
// non-2xx status, when a refresh ends more than 1 s after it was due, or
// when an output check fails. Every step's outputs are hashed (T90
// vector, power, energy so far and relaxations; on dc-consolidate power,
// active servers and demand, then the result's energy, migrations and
// overloads). Each replayed step must hash equal to the first pass of its
// unit, and the reference run at the start to the first unit's. The
// digest, FNV-64a over the fixed work's step hashes, must equal
// recordedDigests at the default seed 1.
//
// # Traced run (--trace 1)
//
// The traced run gives the per-layer metrics listed in perLayer, on two
// units. It records spans with telemetry.Tracer on the wall clock, from
// this program's own files, around calls into each layer's public
// functions, and writes them as Chrome-trace JSON plus a self-time table
// (a span's time minus the time its children cover) under -out. The
// testbed workloads are driven period by period through the same public
// calls as testbed.Run, in its order, and the reference run through
// testbed.Run itself, so every traced run checks the two agree bit for
// bit. dc-consolidate wraps IPAC in a timing Consolidator, and its
// reference run uses IPAC unwrapped, so every run checks the wrapper
// changes nothing. Allocation counts are runtime.MemStats.Mallocs deltas;
// while serve-live's load runs they are read only around whole passes,
// because a read stops the world. trace.overhead_ratio is the traced step
// median over the
// untraced reference run's; per-layer timings are not scaled.
//
// # Comparing two commits
//
// Run each workload on both commits with the same --seconds, alternating
// which commit runs first, for ten seeds or more. Compare the medians of
// each end-to-end metric per workload against its bound, and use the
// traced runs' per-layer tables to show which layer moved it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"vdcpower/internal/telemetry"
)

// benchWorkload is one named set of inputs the benchmark runs.
type benchWorkload struct {
	name string
	why  string
	size sizes // of the untraced run
	run  func(r *run) error
}

var workloads = []benchWorkload{
	{"testbed-steady", "paper testbed at its set point: the DES substrate does most of the work and the optimizer none",
		sizes{units: 14, periods: 150, refPeriods: 50},
		func(r *run) error { return runTestbed(r, steady) }},
	{"testbed-surge", "staggered client surges and set-point changes: deeper queues, a larger event heap and a busy controller",
		sizes{units: 10, periods: 150, refPeriods: 50},
		func(r *run) error { return runTestbed(r, surge) }},
	{"dc-consolidate", "2000-VM 14-day IPAC consolidation: the optimizer dominates and the DES is idle",
		sizes{units: 10, dcVMs: 2000, dcDays: 14},
		runDC},
	{"serve-live", "dashboard polling contends with stepping for the serve mutex, observers on; viewer count chosen, not measured",
		sizes{units: 14, periods: 150, refPeriods: 50, viewers: 10},
		runServe},
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

// mainErr is main with its edges injected, so tests drive it in-process.
func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vdcperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: testbed-steady, testbed-surge, dc-consolidate or serve-live")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 20, "minimum length of the measured phase in seconds")
		trace   = fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics; 0 reports end-to-end metrics")
		out     = fs.String("out", filepath.Join(".bench_build", "trace"), "directory for the traced run's Chrome trace and self-time table")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		logf(stderr, "vdcperf: want -workload <name> [-seed n] [-seconds s] [-trace 0|1]; workloads:\n")
		for _, w := range workloads {
			logf(stderr, "  %-15s %s\n", w.name, w.why)
		}
		return 2
	}
	if err := checkBenchmarkFile("BENCHMARK.json"); err != nil {
		logf(stderr, "vdcperf: run from the repository root, whose BENCHMARK.json must match the code: %v\n", err)
		return 1
	}
	r := newRun(*wl, telemetry.WallClock, *seed, *seconds, *trace == 1)
	res, report, err := measure(r, *wl, *out)
	logf(stderr, "%s", report)
	if err != nil {
		logf(stderr, "vdcperf: %s: %v\n", wl.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err == nil {
		_, err = fmt.Fprintf(stdout, "%s\n", line)
	}
	if err != nil {
		logf(stderr, "vdcperf: writing the result: %v\n", err)
		return 1
	}
	return 0
}

// logf writes a best-effort diagnostic; the exit code and the result
// line are the command's real output.
func logf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// measure runs the workload and assembles its result: the end-to-end
// metrics, or on the traced run the per-layer metrics, after writing the
// trace files under outDir. It also returns a human-readable report.
func measure(r *run, wl benchWorkload, outDir string) (result, string, error) {
	var b strings.Builder
	if err := wl.run(r); err != nil {
		return result{}, "", err
	}
	defs, values := endToEnd, map[string]float64(nil)
	var err error
	if r.traced() {
		defs = perLayer
		if values, err = r.perLayerMetrics(); err != nil {
			return result{}, "", err
		}
		table, err := writeTrace(outDir, wl.name, r.tracer)
		if err != nil {
			return result{}, "", err
		}
		b.WriteString(table)
	} else if values, err = r.endToEnd(); err != nil {
		return result{}, "", err
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	fmt.Fprintf(&b, "%s seed %d: %d units, %d steps, %d operations, %d failed\n", wl.name, r.seed, len(r.units), len(r.allSteps()), r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(&b, "  FAILED: %s\n", p)
	}
	for _, d := range defs {
		fmt.Fprintf(&b, "  %-32s %14.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
	return res, b.String(), nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) from
// /proc/self/status, in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
