package testbed

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"vdcpower/internal/fault"
)

// Draining the applications' domains on the devs helper pool changes no
// output: at GOMAXPROCS 2 and 4 the identified model and fit, every
// period record, the abort and every drain's guard observation equal the
// run at GOMAXPROCS 1, which drains the domains in turn. The setups are
// DefaultConfig and TestDomainsMatchSharedHeap's IPAC run with faults
// and injected budget exhaustion. This test does not check that a
// helper took any drain: devs' TestDomainsDrainAtOnce alone shows that
// the parallel path runs.
func TestWorkerCountsMatchSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	small := DefaultConfig()
	small.NumApps = 4
	small.IdentPeriods = 40
	small.IdentWarmupSec = 20
	exhaust := digestFaults()
	exhaust.Guard = fault.GuardProfile{ExhaustProb: 0.1}
	setups := []struct {
		name        string
		cfg         Config
		consolidate bool
		prof        fault.Profile
		periods     int
	}{
		{"default", DefaultConfig(), false, fault.Profile{}, 25},
		{"ipac-faults-exhaust", small, true, exhaust, 40},
	}
	trips := 0
	for _, su := range setups {
		for seed := int64(1); seed <= 5; seed++ {
			cfg := su.cfg
			cfg.Seed = seed
			prof := su.prof
			prof.Seed += seed
			runtime.GOMAXPROCS(1)
			ref := runConstruction(t, build, cfg, su.consolidate, prof, su.periods)
			if ref.abort != nil {
				trips++
			}
			for _, procs := range []int{2, 4} {
				runtime.GOMAXPROCS(procs)
				got := runConstruction(t, build, cfg, su.consolidate, prof, su.periods)
				where := fmt.Sprintf("%s seed %d at GOMAXPROCS %d", su.name, seed, procs)
				if !reflect.DeepEqual(got.tb.Model, ref.tb.Model) || got.tb.Fit != ref.tb.Fit {
					t.Fatalf("%s: identified %+v (%+v), sequential %+v (%+v)", where, got.tb.Model, got.tb.Fit, ref.tb.Model, ref.tb.Fit)
				}
				if !reflect.DeepEqual(got.recs, ref.recs) {
					t.Fatalf("%s: records diverge:\n%+v\nsequential:\n%+v", where, got.recs, ref.recs)
				}
				if (got.abort == nil) != (ref.abort == nil) || got.abort != nil && got.abort.Period != ref.abort.Period {
					t.Fatalf("%s: abort %v, sequential %v", where, got.abort, ref.abort)
				}
				if !reflect.DeepEqual(got.log.guards, ref.log.guards) {
					t.Fatalf("%s: drains diverge:\n%+v\nsequential:\n%+v", where, got.log.guards, ref.log.guards)
				}
			}
		}
	}
	if trips == 0 {
		t.Fatal("vacuous: no injected budget trip")
	}
}
