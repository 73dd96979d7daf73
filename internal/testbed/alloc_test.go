package testbed

import (
	"runtime"
	"testing"

	"vdcpower/internal/obs"
	"vdcpower/internal/probe"
	"vdcpower/internal/race"
	"vdcpower/internal/telemetry"
)

// TestObservedPeriodAllocatesNoMoreThanBare: with the health scorecard
// and the metrics registry subscribed, a warmed control period allocates
// no more than the same period unobserved — the probe's subscribers
// resolve their instruments once and fold facts in place. The unobserved
// period itself stays at maxBare allocations: the drain allocates
// nothing, each controller selects its percentile in storage it keeps and
// lends its allocations as a view, arbitration throttles each server
// without building grants, and Run's records and their T90 rows are
// storage the testbed reuses. The warm-up is long because buffers grow
// only when a window or an MPC active set reaches a new high: in the 25
// periods after the first 75 of this run they still grow about 20 times,
// and after 100 periods at most once in 25.
func TestObservedPeriodAllocatesNoMoreThanBare(t *testing.T) {
	const maxBare, warm = 0, 100
	if race.Enabled {
		t.Skip("the race detector allocates shadow state")
	}
	perPeriod := func(observed bool) float64 {
		cfg := DefaultConfig()
		cfg.IdentPeriods = 40
		tb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if observed {
			sc := obs.New(obs.Config{SLOTargetSec: cfg.Setpoint})
			tb.AttachProbe(probe.New(probe.Scorecard(sc), probe.Metrics(telemetry.NewRegistry())))
		}
		for i := 0; i < warm; i++ {
			if _, err := tb.Run(cfg.Period, nil); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := tb.Run(cfg.Period, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare, observed := perPeriod(false), perPeriod(true)
	if bare > maxBare {
		t.Fatalf("an unobserved period allocates %v times, more than %d", bare, maxBare)
	}
	if observed > bare {
		t.Fatalf("an observed period allocates %v times, an unobserved one %v", observed, bare)
	}
	t.Logf("allocations per period: %v unobserved, %v observed", bare, observed)
}

// TestTracedPeriodAllocatesLikeBare: with span tracing attached, 100
// warmed control periods allocate less than one object per period more
// than the same periods untraced. The tracer reuses its span handles and
// stores records and attributes in rings that grow by doubling, so only
// that growth is left; a span or attribute slice per span would add
// about 160 per period.
func TestTracedPeriodAllocatesLikeBare(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates shadow state")
	}
	const periods = 100
	mallocs := func(traced bool) uint64 {
		cfg := DefaultConfig()
		cfg.IdentPeriods = 40
		tb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if traced {
			tb.AttachTelemetry(0)
		}
		for i := 0; i < 10; i++ {
			if _, err := tb.Run(cfg.Period, nil); err != nil {
				t.Fatal(err)
			}
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < periods; i++ {
			if _, err := tb.Run(cfg.Period, nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	bare, traced := mallocs(false), mallocs(true)
	if traced >= bare+periods {
		t.Fatalf("%d traced periods allocate %d times, untraced %d: the tracer allocates %.2f times per period, want less than 1",
			periods, traced, bare, float64(traced-bare)/periods)
	}
	t.Logf("allocations per period: %.2f untraced, %.2f traced", float64(bare)/periods, float64(traced)/periods)
}
