package dcsim

import (
	"bytes"
	"encoding/json"
	"testing"

	"vdcpower/internal/optimizer"
	"vdcpower/internal/probe"
	"vdcpower/internal/telemetry"
)

// chromeEvent mirrors the fields of one Chrome-trace event the
// assertions need.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// tracedFig6Run executes one serial Figure 6 run with the recorder on
// and returns the exported Chrome trace bytes.
func tracedFig6Run(t *testing.T) []byte {
	t.Helper()
	tr := testTrace(t)
	tracer := telemetry.New(nil, 0)
	cfg := DefaultConfig(tr, 60, optimizer.NewIPAC())
	cfg.WatchdogEverySteps = 4
	cfg.Telemetry = tracer.Track("main")
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, tracer.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChromeTraceRoundTrip exports a Figure 6 subset run and checks the
// trace parses as JSON, contains the consolidation span taxonomy, and
// nests every span inside the run's root span.
func TestChromeTraceRoundTrip(t *testing.T) {
	raw := tracedFig6Run(t)
	var evs []chromeEvent
	if err := json.Unmarshal(raw, &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	byName := map[string]int{}
	var root *chromeEvent
	for i, e := range evs {
		byName[e.Name]++
		if e.Name == "dcsim.run" {
			root = &evs[i]
		}
	}
	for _, want := range []string{
		"dcsim.run", "dcsim.consolidate", "ipac.consolidate", "ipac.round",
		"optimizer.pac", "packing.minslack", "dcsim.watchdog",
		"arbitrate.dvfs", "arbitrator.pass",
	} {
		if byName[want] == 0 {
			t.Errorf("trace lacks %q spans (have %v)", want, byName)
		}
	}
	if root == nil {
		t.Fatal("no dcsim.run root span")
	}

	// Every complete span lies inside the root span's interval, and its
	// recorded depth is positive (the root is depth 0).
	end := root.TS + root.Dur
	for _, e := range evs {
		if e.Ph != "X" || e.Name == "dcsim.run" {
			continue
		}
		if e.TS < root.TS || e.TS+e.Dur > end+1e-6 {
			t.Fatalf("span %s [%v,%v] escapes the root [%v,%v]", e.Name, e.TS, e.TS+e.Dur, root.TS, end)
		}
		if d, ok := e.Args["depth"].(float64); !ok || d < 1 {
			t.Fatalf("span %s has depth %v, want >= 1", e.Name, e.Args["depth"])
		}
	}
}

// TestChromeTraceSameSeedByteIdentical checks serial traced runs are
// reproducible artifacts: two runs from the same seed export
// byte-identical files.
func TestChromeTraceSameSeedByteIdentical(t *testing.T) {
	a := tracedFig6Run(t)
	b := tracedFig6Run(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed traces differ: %d vs %d bytes", len(a), len(b))
	}
}

// TestSweepWorkerTrackMonotonic funnels a multi-job sweep through one
// worker and checks the worker track's dcsim.job spans advance
// monotonically with real durations. Each run resets its logical clock
// to zero, so without the per-job Rebase the second job would rewind
// the track, stack at ts 0, and clamp its duration.
func TestSweepWorkerTrackMonotonic(t *testing.T) {
	tr := testTrace(t)
	tracer := telemetry.New(nil, 0)
	_, err := Fig6Sweep(tr, []int{30, 60}, []func() optimizer.Consolidator{
		func() optimizer.Consolidator { return optimizer.NewIPAC() },
	}, SweepOptions{Workers: 1, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []telemetry.SpanRecord
	for _, r := range tracer.Snapshot() {
		if r.Name == "dcsim.job" && r.Track == "worker-00" {
			jobs = append(jobs, r)
		}
	}
	if len(jobs) != 2 {
		t.Fatalf("got %d dcsim.job spans on worker-00, want 2", len(jobs))
	}
	prevEnd := 0.0
	for i, j := range jobs {
		if j.Dur <= 0 {
			t.Errorf("job %d duration = %v, want > 0", i, j.Dur)
		}
		if j.Start < prevEnd {
			t.Errorf("job %d starts at %v, before the previous job ended at %v", i, j.Start, prevEnd)
		}
		prevEnd = j.Start + j.Dur
	}
}

// TestRunPublishesMetrics checks a run feeds the metrics registry the
// consolidation counters and state gauges.
func TestRunPublishesMetrics(t *testing.T) {
	tr := testTrace(t)
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig(tr, 60, optimizer.NewIPAC())
	cfg.WatchdogEverySteps = 4
	cfg.Probe = probe.New(probe.Metrics(reg))
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{
		"vdcpower_optimizer_passes_total{policy=\"IPAC\"}",
		"vdcpower_migrations_total",
		"vdcpower_bnb_nodes_total",
		"vdcpower_watchdog_passes_total",
		"vdcpower_power_watts",
		"vdcpower_active_servers",
	} {
		if !bytes.Contains(prom.Bytes(), []byte(m)) {
			t.Errorf("exposition lacks %s:\n%s", m, prom.String())
		}
	}
}
