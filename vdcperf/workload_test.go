package main

import (
	"strings"
	"testing"

	"vdcpower/internal/race"
	"vdcpower/internal/telemetry"
)

// tinySizes keep every percentile the runs report legal (20 passes for
// the set-up median, 100 steps for a p90) while each run takes seconds.
var tinySizes = sizes{units: 10, periods: 50, refPeriods: 20, dcVMs: 100, dcDays: 14, viewers: 100}

// serveSeconds is how long a tiny serve-live run lasts, so that its
// traced run sees the 100 refreshes a p90 needs.
const serveSeconds = 2

// logicalClock advances a millisecond per reading, so runs that do not
// pace themselves against real time are independent of the host.
func logicalClock() func() float64 {
	n := 0
	return func() float64 {
		n++
		return float64(n) * 1e-3
	}
}

// tinyRun runs one workload at tinySizes with no fill phase and returns
// the run with its result.
func tinyRun(t *testing.T, wl benchWorkload, seed int64, traced bool) (*run, result) {
	t.Helper()
	clock, seconds := logicalClock(), 0.0
	if wl.name == "serve-live" {
		// The load generator paces itself by the wall clock.
		clock, seconds = telemetry.WallClock, serveSeconds
	}
	r := newRun(wl, clock, seed, seconds, traced)
	r.size = tinySizes
	if traced {
		r.size = tinySizes.traced()
	}
	res, report, err := measure(r, wl, t.TempDir())
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v\n%s", wl.name, seed, traced, err, report)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d traced=%v: correct=%v failed=%d of %d\n%s", wl.name, seed, traced, res.Correct, res.Failed, res.Attempted, report)
	}
	return r, res
}

// TestWorkloads runs every workload at tinySizes. Its inputs must come
// from its seed alone: the same seed gives identical simulated metrics
// and digest, and another seed another digest. Untraced and traced, it
// must emit exactly the metrics the code declares, which
// TestBenchmarkFileMatchesCode ties to BENCHMARK.json, and every
// end-to-end metric must be positive. serve-live steps the same testbeds
// as testbed-steady, under read-only HTTP load and with observers on, so
// the two digests must be equal.
func TestWorkloads(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector slows the workloads past their request deadline; TestServeLiveConcurrency covers the concurrent code")
	}
	digests := map[string]uint64{}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			a, ra := tinyRun(t, wl, 1, false)
			digests[wl.name] = a.digest
			b, rb := tinyRun(t, wl, 1, false)
			c, _ := tinyRun(t, wl, 2, false)
			if a.digest != b.digest {
				t.Errorf("seed 1 gave digests %#x and %#x", a.digest, b.digest)
			}
			if a.digest == c.digest {
				t.Errorf("seeds 1 and 2 gave the same digest %#x", a.digest)
			}
			for _, m := range []string{"power_w", "slo_miss_pct"} {
				if !bitsEqual(ra.Metrics[m].Value, rb.Metrics[m].Value) {
					t.Errorf("seed 1 gave %s %v and %v", m, ra.Metrics[m].Value, rb.Metrics[m].Value)
				}
			}
			emits(t, ra, endToEnd, true)
			_, rt := tinyRun(t, wl, 1, true)
			emits(t, rt, perLayer, false)
		})
	}
	if s, ok := digests["serve-live"]; ok && s != digests["testbed-steady"] {
		t.Errorf("serve-live digest %#x differs from testbed-steady's %#x", s, digests["testbed-steady"])
	}
}

// emits checks res carries exactly the metrics defs declares, with their
// units, and with positive values where positive is set.
func emits(t *testing.T, res result, defs []metricDef, positive bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("metric %s = %+v, want unit %s", d.Name, m, d.Unit)
		}
		if positive && !(m.Value > 0) {
			t.Errorf("metric %s = %v, want > 0", d.Name, m.Value)
		}
	}
}

// TestServeLiveConcurrency steps servers while the load generator sends
// requests, for the race detector. Under it, requests may miss their
// deadline; nothing else may fail.
func TestServeLiveConcurrency(t *testing.T) {
	r := newRun(workloads[3], telemetry.WallClock, 1, 0, false)
	r.size = sizes{units: 2, periods: 100, refPeriods: 20, viewers: 20}
	if err := runServe(r); err != nil {
		t.Fatal(err)
	}
	for _, p := range r.problems {
		if !race.Enabled || !strings.Contains(p, "from its due time") {
			t.Error(p)
		}
	}
	if want := fixedRounds * 200; r.attempted == 0 || len(r.allSteps()) != want {
		t.Errorf("%d operations, %d steps; want some and %d", r.attempted, len(r.allSteps()), want)
	}
}

// TestRecordedDigests runs each workload's full fixed work at the default
// seed; a run whose digest differs from recordedDigests fails.
func TestRecordedDigests(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("runs every workload at full size")
	}
	for _, wl := range workloads {
		r := newRun(wl, telemetry.WallClock, defaultSeed, 0, false)
		res, report, err := measure(r, wl, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !res.Correct {
			t.Errorf("%s: digest %#x, recorded %#x\n%s", wl.name, r.digest, recordedDigests[wl.name], report)
		}
	}
}
