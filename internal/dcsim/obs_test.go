package dcsim

import (
	"bytes"
	"testing"

	"vdcpower/internal/obs"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/probe"
	"vdcpower/internal/workload"
)

// obsRun executes one small checked run with a scorecard attached and
// returns the scorecard's JSON document.
func obsRun(t *testing.T, seed int64) []byte {
	t.Helper()
	trace, err := workload.Generate(workload.GenConfig{NumVMs: 40, Days: 1, StepsPerHour: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sc := obs.New(obs.Config{Label: "dcsim-test", SLOBudget: 0.05, FastWindow: 8, SlowWindow: 64})
	cfg := DefaultConfig(trace, 40, optimizer.NewIPAC())
	cfg.Seed = seed
	cfg.WatchdogEverySteps = 4
	cfg.Probe = probe.New(sc)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := sc.Report()
	if rep.Steps != uint64(res.Steps) {
		t.Fatalf("scorecard steps = %d, run steps = %d", rep.Steps, res.Steps)
	}
	if rep.Optimizer.Passes == 0 {
		t.Fatal("no optimizer passes scored")
	}
	if rep.Optimizer.Migrations != res.Migrations {
		t.Fatalf("scorecard migrations = %d, run = %d", rep.Optimizer.Migrations, res.Migrations)
	}
	if rep.SLO.Good+rep.SLO.Bad != uint64(res.Steps) {
		t.Fatalf("SLO events = %d, want one per step (%d)", rep.SLO.Good+rep.SLO.Bad, res.Steps)
	}
	if rep.Power == nil || rep.Power.Count != uint64(res.Steps) {
		t.Fatalf("power sketch = %+v, want one sample per step", rep.Power)
	}
	if rep.SLO.Verdict == obs.VerdictNoData {
		t.Fatal("verdict should not be no-data after a full run")
	}
	var b bytes.Buffer
	if err := sc.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestObsSameSeedByteIdentical is the tentpole determinism criterion:
// two same-seed serial runs must produce byte-identical scorecard JSON.
func TestObsSameSeedByteIdentical(t *testing.T) {
	a := obsRun(t, 7)
	b := obsRun(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed scorecard JSON differs between runs")
	}
	c := obsRun(t, 8)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical scorecards — observation is not wired")
	}
}

// TestObsAuditRecordsDecisions: consolidation on a packable workload
// must leave "server-off"-grade records in the ring.
func TestObsAuditRecordsDecisions(t *testing.T) {
	trace, err := workload.Generate(workload.GenConfig{NumVMs: 60, Days: 1, StepsPerHour: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sc := obs.New(obs.Config{})
	cfg := DefaultConfig(trace, 60, optimizer.NewIPAC())
	cfg.Probe = probe.New(sc)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	recs := sc.Audit().Records()
	if len(recs) == 0 {
		t.Fatal("no audit records from a consolidating run")
	}
	sawServerChange := false
	for _, d := range recs {
		if d.Action == "server-off" || d.Action == "server-on" {
			sawServerChange = true
			if d.Target == "" || d.Reason == "" || d.Span == "" {
				t.Fatalf("incomplete decision record: %+v", d)
			}
		}
	}
	if !sawServerChange {
		t.Fatal("no server on/off decisions recorded")
	}
}

// TestObsSweepMergeDeterministic: the parallel sweep's merged scorecard
// must not depend on worker scheduling — two sweeps with different
// worker counts (serial vs parallel) agree byte for byte.
func TestObsSweepMergeDeterministic(t *testing.T) {
	trace, err := workload.Generate(workload.GenConfig{NumVMs: 60, Days: 1, StepsPerHour: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{30, 60}
	policies := []func() optimizer.Consolidator{
		func() optimizer.Consolidator { return optimizer.NewIPAC() },
		func() optimizer.Consolidator { return optimizer.NewPMapper() },
	}
	sweep := func(workers int) []byte {
		agg := obs.New(obs.Config{Label: "sweep", SLOBudget: 0.05, FastWindow: 8, SlowWindow: 64})
		if _, err := Fig6Sweep(trace, sizes, policies, SweepOptions{Workers: workers, Obs: agg}); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := agg.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	one := sweep(1)
	four := sweep(4)
	if !bytes.Equal(one, four) {
		t.Fatal("sweep scorecard depends on worker count")
	}
	again := sweep(4)
	if !bytes.Equal(four, again) {
		t.Fatal("sweep scorecard not reproducible across repeats")
	}
}
