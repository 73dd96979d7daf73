package vdcpower_test

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/dcsim"
	"vdcpower/internal/fault"
	"vdcpower/internal/obs"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/probe"
	"vdcpower/internal/telemetry"
	"vdcpower/internal/testbed"
	"vdcpower/internal/workload"
)

// observerDigests are FNV-64 digests of everything the observers of one
// run emit: the scorecard JSON, the Prometheus exposition, the Chrome
// trace and the checker's event stream.
type observerDigests struct {
	Scorecard, Prom, Trace, Events uint64
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// eventRecorder is a check.Invariant that never fails: it folds every
// observed event's kind, step and payload into one hash, so two runs
// agree only if their checkers saw the same event stream.
type eventRecorder struct{ h hash.Hash64 }

func (r *eventRecorder) Name() string { return "test/event-recorder" }

func (r *eventRecorder) Check(ev check.Event) error {
	fmt.Fprintf(r.h, "%d|%d|%s|%d|%x|%x|%t|%t|%q|", ev.Kind, ev.Step, ev.Policy, ev.OverloadedBefore,
		math.Float64bits(ev.PowerW), math.Float64bits(ev.EnergyJ), ev.HasPower, ev.HasEnergy, ev.LostVMs)
	if ev.DC != nil {
		fmt.Fprintf(r.h, "dc %d %x|", ev.DC.NumActive(), math.Float64bits(ev.DC.TotalPower()))
	}
	switch ev.Kind {
	case check.EvConsolidate, check.EvWatchdog:
		if rep := ev.Report; rep != nil {
			fmt.Fprintf(r.h, "rep %d %d %d %d %d %d %d|", rep.Migrations, rep.Vetoed, rep.Rounds,
				rep.Unresolved, rep.FailedMoves, rep.ActiveBefore, rep.ActiveAfter)
			for _, mv := range rep.Moves {
				fmt.Fprintf(r.h, "%s>%s>%s|", mv.VM.ID, mv.From.ID, mv.To.ID)
			}
		}
	case check.EvMigration:
		m := ev.Migration
		fmt.Fprintf(r.h, "mig %s %s %s %s|", m.VMID, m.From, m.To, m.Phase)
	case check.EvControl:
		c := ev.Control
		fmt.Fprintf(r.h, "ctl %s %t %d %d %t|", c.App, c.Held, c.HeldStreak, c.HoldWindow, c.OpenLoop)
	case check.EvGuard:
		g := ev.Guard
		fmt.Fprintf(r.h, "guard %d %d %d %d %t %t|", g.MaxEvents, g.Events, g.MaxSameTime, g.SameTime, g.Tripped, g.Aborted)
	}
	return nil
}

// collect renders the observers of one finished run into digests.
func collect(t *testing.T, sc *obs.Scorecard, reg *telemetry.Registry, tr *telemetry.Tracer, ck *check.Checker, rec *eventRecorder) observerDigests {
	t.Helper()
	var card, prom, trace bytes.Buffer
	if err := sc.WriteJSON(&card); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteChromeTrace(&trace, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(rec.h, "events=%d violations=%d", ck.Events(), ck.NumViolations())
	return observerDigests{fnv64(card.Bytes()), fnv64(prom.Bytes()), fnv64(trace.Bytes()), rec.h.Sum64()}
}

// TestObserverDigestsTestbed pins every observer's output for a testbed
// run with IPAC every 5 periods under sensor, DVFS, migration and
// optimizer faults. The digests were recorded from the observer wiring
// that predates the single probe; rewiring the observers must not move
// them. The scorecard and event digests were re-pinned when each
// application got its own event domain: tiers of different applications
// paused by one migration batch resume at the same instant, and the
// longest same-instant run (EvGuard.SameTime, the scorecard's
// max_same_time) is now counted per domain. With that one field masked,
// both digests match the shared-queue kernel's.
func TestObserverDigestsTestbed(t *testing.T) {
	cfg := testbed.DefaultConfig()
	cfg.NumApps = 4
	cfg.NumServers = 4
	cfg.IdentPeriods = 40
	cfg.IdentWarmupSec = 20
	tb, err := testbed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sc := obs.New(obs.Config{Label: "testbed", SLOTargetSec: cfg.Setpoint})
	rec := &eventRecorder{h: fnv.New64a()}
	ck := check.New(append(check.All(), rec)...)
	inj := fault.New(fault.Profile{
		Seed:      13,
		Sensor:    fault.SensorProfile{DropoutProb: 0.4, OutlierProb: 0.05, StuckProb: 0.05},
		DVFS:      fault.DVFSProfile{FailProb: 0.1},
		Migration: fault.MigrationProfile{AbortProb: 0.4, MaxRetries: 1},
		Optimizer: fault.OptimizerProfile{ErrorProb: 0.3},
	})
	if err := tb.AttachOptimizer(optimizer.NewIPAC(), 5, cluster.DefaultMigrationModel()); err != nil {
		t.Fatal(err)
	}
	tr := tb.AttachTelemetry(0)
	tb.AttachProbe(probe.New(ck, probe.Scorecard(sc), probe.Metrics(reg)))
	inj.AttachMetrics(reg)
	tb.AttachFaults(inj)
	if _, err := tb.Run(40*cfg.Period, nil); err != nil {
		t.Fatal(err)
	}
	if rep := sc.Report(); rep.Control.OpenLoop == 0 || rep.Optimizer.DegradedPasses == 0 || rep.Optimizer.Migrations == 0 {
		t.Fatalf("scenario is vacuous: control %+v, optimizer %+v", rep.Control, rep.Optimizer)
	}
	got := collect(t, sc, reg, tr, ck, rec)
	want := observerDigests{Scorecard: 0xd287679f8694f24a, Prom: 0x4ec2781258b8d329, Trace: 0x98a713ca1cd6924f, Events: 0x1ba8c1baa9738870}
	if got != want {
		t.Errorf("observer digests = %#v, want %#v", got, want)
	}
}

// TestObserverDigestsDCSim pins every observer's output for one checked
// dcsim run at the CI obs-smoke size (30 of 60 generated VMs, one day),
// with the watchdog every 4 steps and testdata/faults/smoke.json.
func TestObserverDigestsDCSim(t *testing.T) {
	prof, err := fault.LoadProfile("testdata/faults/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := workload.Generate(workload.GenConfig{NumVMs: 60, Days: 1, StepsPerHour: 4, Seed: 2008})
	if err != nil {
		t.Fatal(err)
	}
	ipac := optimizer.NewIPAC()
	aud := check.NewPolicyAuditor(ipac.Policy)
	ipac.Policy = aud
	reg := telemetry.NewRegistry()
	tracer := telemetry.New(nil, 0)
	sc := obs.New(obs.Config{Label: "dcsim", SLOBudget: 0.05, FastWindow: 8, SlowWindow: 64})
	rec := &eventRecorder{h: fnv.New64a()}
	ck := check.New(append(check.All(), check.VetoesRespected(aud), rec)...)
	cfg := dcsim.DefaultConfig(trace, 30, ipac)
	cfg.WatchdogEverySteps = 4
	cfg.Faults = fault.New(prof)
	cfg.Faults.AttachMetrics(reg)
	cfg.Telemetry = tracer.Track("IPAC-30")
	cfg.Probe = probe.New(ck, probe.Scorecard(sc), probe.Metrics(reg))
	res, err := dcsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 || res.DegradedPasses == 0 || res.WatchdogMoves == 0 || res.Migrations == res.WatchdogMoves {
		t.Fatalf("scenario is vacuous: %+v", res)
	}
	got := collect(t, sc, reg, tracer, ck, rec)
	want := observerDigests{Scorecard: 0x86fed83cf7c415b3, Prom: 0x61e786af92557ef6, Trace: 0x91502270ee3cfa37, Events: 0x9888e487593e8ad3}
	if got != want {
		t.Errorf("observer digests = %#v, want %#v", got, want)
	}
}
