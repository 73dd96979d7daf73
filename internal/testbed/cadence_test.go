package testbed

import (
	"fmt"
	"reflect"
	"testing"

	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/probe"
)

// stepLog is an invariant that never fails: it logs every event's kind
// and step.
type stepLog []string

func (*stepLog) Name() string { return "test/step-log" }

func (l *stepLog) Check(ev check.Event) error {
	*l = append(*l, fmt.Sprintf("%s@%d", ev.Kind, ev.Step))
	return nil
}

// TestStepwiseRunsMatchOneLongRun drives the same testbed with ten
// one-period Run calls (serve's cadence) and with one ten-period call: the
// optimizer must run at the same periods and every fact must carry the
// same period index.
func TestStepwiseRunsMatchOneLongRun(t *testing.T) {
	run := func(calls int) ([]string, stepLog) {
		cfg := quickConfig()
		cfg.NumServers = 4
		tb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.AttachOptimizer(optimizer.NewIPAC(), 2, cluster.DefaultMigrationModel()); err != nil {
			t.Fatal(err)
		}
		var log stepLog
		tb.AttachProbe(probe.New(check.New(&log)))
		for i := 0; i < calls; i++ {
			if _, err := tb.Run(float64(10/calls)*cfg.Period, nil); err != nil {
				t.Fatal(err)
			}
		}
		var passes []string
		for _, rep := range tb.OptimizerLogs {
			passes = append(passes, rep.String())
		}
		return passes, log
	}
	longPasses, longLog := run(1)
	stepPasses, stepLog := run(10)
	if len(longPasses) != 5 {
		t.Fatalf("one long run made %d optimizer passes, want 5", len(longPasses))
	}
	if !reflect.DeepEqual(stepPasses, longPasses) {
		t.Fatalf("stepwise optimizer passes %q, want %q", stepPasses, longPasses)
	}
	if !reflect.DeepEqual(stepLog, longLog) {
		t.Fatalf("stepwise facts\n%v\nwant\n%v", stepLog, longLog)
	}
}
