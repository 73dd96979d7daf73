package testbed

import (
	"fmt"
	"reflect"
	"testing"

	"vdcpower/internal/appsim"
	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/core"
	"vdcpower/internal/devs"
	"vdcpower/internal/fault"
	"vdcpower/internal/guard"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/power"
	"vdcpower/internal/probe"
)

// sharedBuild is build as it was before each application got its own
// event domain, kept as the differential reference: every application
// queues its events on tb.Sim itself.
func sharedBuild(cfg Config) (*Testbed, error) {
	if cfg.NumServers < 1 || cfg.NumApps < 1 {
		return nil, fmt.Errorf("testbed: need at least one server and app, got %d/%d", cfg.NumServers, cfg.NumApps)
	}
	tb := &Testbed{Cfg: cfg, Sim: devs.NewSimulator()}

	var servers []*cluster.Server
	for i := 0; i < cfg.NumServers; i++ {
		servers = append(servers, cluster.NewServer(fmt.Sprintf("S%d", i+1), power.TypeHighEnd()))
	}
	dc, err := cluster.NewDataCenter(servers)
	if err != nil {
		return nil, err
	}
	tb.DC = dc
	for _, s := range servers {
		tb.Arbitrators = append(tb.Arbitrators, &core.Arbitrator{Server: s, Headroom: 0.1})
	}

	tiers := cfg.Tiers
	if len(tiers) == 0 {
		tiers = appTiers()
	}
	tb.vmIndex = make(map[string][2]int)
	slot := 0
	for i := 0; i < cfg.NumApps; i++ {
		app := appsim.New(tb.Sim, appsim.Config{
			Name:        fmt.Sprintf("App%d", i+1),
			Tiers:       tiers,
			Concurrency: cfg.Concurrency,
			ThinkTime:   1.0,
			Seed:        cfg.Seed + int64(i)*977,
		})
		tb.Apps = append(tb.Apps, app)
		tiers := make([]*cluster.VM, app.NumTiers())
		for j := range tiers {
			vm := &cluster.VM{
				ID:       fmt.Sprintf("app%d-tier%d", i+1, j+1),
				App:      app.Name,
				Tier:     j,
				Demand:   app.Allocation(j),
				MemoryGB: 2,
			}
			if err := dc.Place(vm, servers[slot%len(servers)]); err != nil {
				return nil, err
			}
			tiers[j] = vm
			tb.vmIndex[vm.ID] = [2]int{i, j}
			slot++
		}
		tb.vms = append(tb.vms, tiers)
		app.Start()
	}
	return tb, nil
}

// drainLog records, per control period, the bounded drain's observation
// and whether the period's consolidation moved a VM, whose migration
// pauses tiers that resume during the next drain.
type drainLog struct {
	guards []check.GuardObservation
	moved  map[int]bool
}

func (l *drainLog) Observe(ev check.Event) {
	switch ev.Kind {
	case check.EvGuard:
		g := ev.Guard
		g.Err = nil // the error describes a drain, compared through Tripped
		l.guards = append(l.guards, g)
	case check.EvConsolidate:
		if ev.Report != nil && len(ev.Report.Moves) > 0 {
			l.moved[ev.Step] = true
		}
	}
}

// domainRun is one construction's result: the identified model, the
// period records, the per-period drains and the abort, if any.
type domainRun struct {
	tb    *Testbed
	recs  []PeriodRecord
	log   *drainLog
	abort *guard.StepAbort
}

// runConstruction finishes a built testbed through New's identification
// and controller code, attaches the optimizer and fault plane of prof
// when consolidate is set, and runs the given number of periods.
func runConstruction(t *testing.T, construct func(Config) (*Testbed, error), cfg Config, consolidate bool, prof fault.Profile, periods int) domainRun {
	t.Helper()
	tb, err := construct(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.control(); err != nil {
		t.Fatal(err)
	}
	log := &drainLog{moved: map[int]bool{}}
	if consolidate {
		if err := tb.AttachOptimizer(optimizer.NewIPAC(), 5, cluster.DefaultMigrationModel()); err != nil {
			t.Fatal(err)
		}
		tb.AttachFaults(fault.New(prof))
	}
	tb.AttachProbe(probe.New(log))
	recs, err := tb.Run(float64(periods)*cfg.Period, nil)
	r := domainRun{tb: tb, recs: recs, log: log}
	if err != nil {
		sa, ok := guard.AsStepAbort(err)
		if !ok {
			t.Fatal(err)
		}
		r.abort = sa
	}
	return r
}

// digestFaults is TestObserverDigestsTestbed's fault profile.
func digestFaults() fault.Profile {
	return fault.Profile{
		Seed:      13,
		Sensor:    fault.SensorProfile{DropoutProb: 0.4, OutlierProb: 0.05, StuckProb: 0.05},
		DVFS:      fault.DVFSProfile{FailProb: 0.1},
		Migration: fault.MigrationProfile{AbortProb: 0.4, MaxRetries: 1},
		Optimizer: fault.OptimizerProfile{ErrorProb: 0.3},
	}
}

// The domain kernel reproduces the shared-heap testbed: the identified
// model, every period record and every drain's event count are
// identical. A same-instant run is counted per domain, so it can only
// shrink, and only in a drain where tiers paused by one migration batch
// resume together. Under injected budget exhaustion both constructions
// abort the same period after identical records.
func TestDomainsMatchSharedHeap(t *testing.T) {
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
		prof        func(seed int64) fault.Profile
		periods     int
	}{
		{"default", DefaultConfig(), false, nil, 25},
		{"ipac-faults", small, true, func(int64) fault.Profile { return digestFaults() }, 40},
		{"ipac-faults-exhaust", small, true, func(seed int64) fault.Profile { p := exhaust; p.Seed = seed; return p }, 40},
	}
	shorter, trips := 0, 0
	for _, su := range setups {
		for seed := int64(1); seed <= 20; seed++ {
			cfg := su.cfg
			cfg.Seed = seed
			var prof fault.Profile
			if su.prof != nil {
				prof = su.prof(seed)
			}
			dom := runConstruction(t, build, cfg, su.consolidate, prof, su.periods)
			ref := runConstruction(t, sharedBuild, cfg, su.consolidate, prof, su.periods)
			where := fmt.Sprintf("%s seed %d", su.name, seed)
			if !reflect.DeepEqual(dom.tb.Model, ref.tb.Model) || dom.tb.Fit != ref.tb.Fit {
				t.Fatalf("%s: identified %+v (%+v), shared heap %+v (%+v)", where, dom.tb.Model, dom.tb.Fit, ref.tb.Model, ref.tb.Fit)
			}
			if !reflect.DeepEqual(dom.recs, ref.recs) {
				t.Fatalf("%s: records diverge:\n%+v\nshared heap:\n%+v", where, dom.recs, ref.recs)
			}
			if (dom.abort == nil) != (ref.abort == nil) || dom.abort != nil && dom.abort.Period != ref.abort.Period {
				t.Fatalf("%s: abort %v, shared heap %v", where, dom.abort, ref.abort)
			}
			if dom.abort != nil {
				trips++
			}
			if len(dom.log.guards) != len(ref.log.guards) {
				t.Fatalf("%s: %d drains, shared heap %d", where, len(dom.log.guards), len(ref.log.guards))
			}
			for p, g := range dom.log.guards {
				r := ref.log.guards[p]
				if g.Tripped || r.Tripped {
					if g.Tripped != r.Tripped {
						t.Fatalf("%s period %d: tripped %v, shared heap %v", where, p, g.Tripped, r.Tripped)
					}
					continue
				}
				if g.Events != r.Events {
					t.Fatalf("%s period %d: %d events, shared heap %d", where, p, g.Events, r.Events)
				}
				resumes := p > 0 && dom.log.moved[p-1]
				if g.SameTime > r.SameTime || !resumes && g.SameTime != r.SameTime {
					t.Fatalf("%s period %d (migration resumes %v): same-instant run %d, shared heap %d", where, p, resumes, g.SameTime, r.SameTime)
				}
				if g.SameTime < r.SameTime {
					shorter++
				}
			}
		}
	}
	if shorter == 0 || trips == 0 {
		t.Fatalf("vacuous: %d drains with shorter same-instant runs, %d budget trips", shorter, trips)
	}
	t.Logf("%d drains with a shorter same-instant run under migration, %d injected trips matched", shorter, trips)
}
