package main

import (
	"reflect"
	"testing"

	"vdcpower/internal/dcsim"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/telemetry"
	"vdcpower/internal/workload"
)

// TestTimedIPACMatchesIPAC is the equivalence test of the timing
// Consolidator: dcsim.Run through it, timed with or without tracing,
// returns exactly the Result of unwrapped IPAC.
func TestTimedIPACMatchesIPAC(t *testing.T) {
	tr, err := workload.Generate(workload.GenConfig{NumVMs: 200, Days: 2, StepsPerHour: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := dcsim.Run(dcsim.DefaultConfig(tr, 200, optimizer.NewIPAC()))
	if err != nil {
		t.Fatal(err)
	}
	if want.Migrations == 0 {
		t.Fatal("the fixture never migrates, so it cannot tell the wrapper apart")
	}
	for _, traced := range []bool{false, true} {
		r := newRun(workloads[2], telemetry.WallClock, 1, 0, traced)
		tm := &dcTimer{r: r, steps: tr.NumSteps()}
		if traced {
			tm.tk, tm.opt = r.tracer.Track("dcsim"), &optTally{}
		}
		cfg := dcsim.DefaultConfig(tr, 200, timedIPAC{IPAC: optimizer.NewIPAC(), t: tm})
		cfg.OnStep = tm.onStep
		tm.begin()
		got, err := dcsim.Run(cfg)
		tm.end()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("traced=%v: got %+v, unwrapped IPAC gave %+v", traced, got, want)
		}
		if len(tm.stepMS) != tr.NumSteps() {
			t.Errorf("traced=%v: timed %d steps, want %d", traced, len(tm.stepMS), tr.NumSteps())
		}
		if traced && (tm.opt.passes == 0 || tm.opt.migrations != want.Migrations) {
			t.Errorf("traced: %d passes with %d migrations, want > 0 and %d", tm.opt.passes, tm.opt.migrations, want.Migrations)
		}
	}
}
