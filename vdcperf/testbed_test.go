package main

import (
	"math"
	"slices"
	"testing"

	"vdcpower/internal/telemetry"
	"vdcpower/internal/testbed"
)

// TestStepperMatchesTestbedRun is the differential test of the traced
// run's period stepper: over 200 periods of each testbed schedule, with
// spans and layer counting on, it must produce the same PeriodRecords
// bit for bit as testbed.Run on a same-seed testbed, and so must the
// untraced run's one-period tb.Run calls.
func TestStepperMatchesTestbedRun(t *testing.T) {
	const periods = 200
	for name, sched := range map[string]schedule{"steady": steady, "surge": surge} {
		t.Run(name, func(t *testing.T) {
			build := func() *testbed.Testbed {
				tb, err := testbed.New(testbed.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				return tb
			}
			ref := build()
			want, err := ref.Run(periods*ref.Cfg.Period, func(k int, _ float64) { sched(ref, k) })
			if err != nil {
				t.Fatal(err)
			}

			traced := build()
			r := newRun(workloads[0], telemetry.WallClock, 1, 0, true)
			d, err := newStepper(traced, r.tracer.Track("testbed"))
			if err != nil {
				t.Fatal(err)
			}
			stepped := build()
			lay := &layerTally{}
			for k := 0; k < periods; k++ {
				sched(traced, k)
				got, err := d.period(r, lay)
				if err != nil {
					t.Fatal(err)
				}
				samePeriod(t, "stepper", k, got, want[k])
				sched(stepped, k)
				if got, err = runPeriod(stepped); err != nil {
					t.Fatal(err)
				}
				samePeriod(t, "tb.Run per period", k, got, want[k])
			}
			if lay.periods != periods || lay.events == 0 || lay.grants == 0 {
				t.Errorf("layer tally did not count: %+v", lay)
			}
		})
	}
}

// TestConstructionSeedsSkipUnphysicalModels: at workload seed 109 the
// sixth and seventh candidates identify a model with a positive web-tier
// gain, under which the controllers starve that tier. constructionSeeds
// must skip both and keep the other candidates in order.
func TestConstructionSeedsSkipUnphysicalModels(t *testing.T) {
	r := newRun(workloads[0], logicalClock(), 109, 0, false)
	got, err := r.constructionSeeds(14)
	if err != nil {
		t.Fatal(err)
	}
	cands := unitSeeds(109, 16)
	want := append(append([]int64{}, cands[:5]...), cands[7:]...)
	if !slices.Equal(got, want) {
		t.Errorf("constructionSeeds(14) = %v, want %v", got, want)
	}
}

func samePeriod(t *testing.T, how string, k int, got, want testbed.PeriodRecord) {
	t.Helper()
	same := len(got.T90) == len(want.T90) && bitsEqual(got.PowerW, want.PowerW) && got.Relaxed == want.Relaxed
	for i := 0; same && i < len(got.T90); i++ {
		same = bitsEqual(got.T90[i], want.T90[i])
	}
	if !same {
		t.Fatalf("%s period %d: got %+v, testbed.Run gave %+v", how, k, got, want)
	}
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
