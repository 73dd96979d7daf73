package testbed

import (
	"math"
	"testing"

	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/obs"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/probe"
	"vdcpower/internal/stats"
)

// The integrated two-level experiments: response time controllers at the
// application level plus IPAC at the data-center level, as in Figure 1.

func TestAttachOptimizerValidation(t *testing.T) {
	tb, err := New(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachOptimizer(nil, 10, cluster.DefaultMigrationModel()); err == nil {
		t.Fatal("nil consolidator accepted")
	}
	if err := tb.AttachOptimizer(optimizer.NewIPAC(), 0, cluster.DefaultMigrationModel()); err == nil {
		t.Fatal("zero interval accepted")
	}
	bad := cluster.DefaultMigrationModel()
	bad.BandwidthGbps = 0
	if err := tb.AttachOptimizer(optimizer.NewIPAC(), 10, bad); err == nil {
		t.Fatal("invalid migration model accepted")
	}
	if err := tb.AttachOptimizer(optimizer.NewIPAC(), 10, cluster.DefaultMigrationModel()); err != nil {
		t.Fatal(err)
	}
}

func TestIntegratedRunSavesPowerKeepsSLA(t *testing.T) {
	// Two identical testbeds; one also runs IPAC every 50 periods. The
	// integrated system must consume less power in steady state while
	// applications keep their set points — the paper's core claim.
	cfg := DefaultConfig() // 8 apps, 4 servers: consolidation headroom exists
	cfg.NumApps = 6
	baseline, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	integrated, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := integrated.AttachOptimizer(optimizer.NewIPAC(), 50, cluster.DefaultMigrationModel()); err != nil {
		t.Fatal(err)
	}
	var passes passLog
	integrated.AttachProbe(probe.New(&passes))
	recB, err := baseline.Run(900, nil)
	if err != nil {
		t.Fatal(err)
	}
	recI, err := integrated.Run(900, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := integrated.DC.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(passes) == 0 {
		t.Fatal("optimizer never ran")
	}

	tailPower := func(recs []PeriodRecord) float64 {
		var xs []float64
		for _, r := range recs[len(recs)-50:] {
			xs = append(xs, r.PowerW)
		}
		return stats.Mean(xs)
	}
	pb, pi := tailPower(recB), tailPower(recI)
	if pi >= pb {
		t.Fatalf("integrated power %v not below baseline %v", pi, pb)
	}
	// Consolidation must have put at least one server to sleep.
	if integrated.DC.NumActive() >= len(integrated.DC.Servers) {
		t.Fatal("no server slept after consolidation")
	}

	// SLA: every app's tail-mean stays near the set point despite the
	// migrations.
	for i := range integrated.Apps {
		var xs []float64
		for _, r := range recI[len(recI)-50:] {
			xs = append(xs, r.T90[i])
		}
		if m := stats.Mean(xs); math.Abs(m-cfg.Setpoint) > 0.45 {
			t.Fatalf("app %d settled at %v under consolidation", i, m)
		}
	}
}

func TestIntegratedMigrationDowntimeVisible(t *testing.T) {
	// With a pathologically slow migration network, consolidation-heavy
	// operation must hurt the affected applications' response times more
	// than a fast network does — the overhead that justifies the paper's
	// two time scales.
	run := func(bandwidthGbps float64, every int) float64 {
		cfg := DefaultConfig()
		cfg.NumApps = 6
		tb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		model := cluster.DefaultMigrationModel()
		model.BandwidthGbps = bandwidthGbps
		// Few pre-copy passes so the slow network's stop-and-copy
		// downtime (seconds) clearly dominates measurement noise.
		model.Passes = 2
		if err := tb.AttachOptimizer(optimizer.NewIPAC(), every, model); err != nil {
			t.Fatal(err)
		}
		recs, err := tb.Run(600, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Worst per-period p90 across apps after the first invocation.
		worst := 0.0
		for _, r := range recs[every:] {
			for _, v := range r.T90 {
				if v > worst {
					worst = v
				}
			}
		}
		return worst
	}
	slow := run(0.02, 25) // 20 Mbps: seconds of downtime per move
	fast := run(10, 25)   // 10 Gbps: negligible downtime
	if slow <= fast {
		t.Fatalf("slow network worst-case %v not above fast %v", slow, fast)
	}
}

// TestIntegratedOptimizerLogsRecordMoves: every pass fact's report
// records each migration it performed.
func TestIntegratedOptimizerLogsRecordMoves(t *testing.T) {
	cfg := quickConfig()
	cfg.NumApps = 4
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachOptimizer(optimizer.NewIPAC(), 20, cluster.DefaultMigrationModel()); err != nil {
		t.Fatal(err)
	}
	var passes passLog
	tb.AttachProbe(probe.New(&passes))
	if _, err := tb.Run(400, nil); err != nil {
		t.Fatal(err)
	}
	moves := 0
	for _, rep := range passes {
		moves += len(rep.Moves)
		if rep.Migrations != len(rep.Moves) {
			t.Fatalf("Migrations=%d but %d moves recorded", rep.Migrations, len(rep.Moves))
		}
	}
	if moves == 0 {
		t.Fatal("no moves recorded across the run")
	}
}

// TestPassFactsAuditEveryServer: the testbed reports each consolidation
// pass with a before-snapshot of every server, as dcsim does, so the
// scorecard's audit names each server a pass switched on or off.
func TestPassFactsAuditEveryServer(t *testing.T) {
	cfg := quickConfig()
	cfg.NumApps = 4
	cfg.NumServers = 4
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachOptimizer(optimizer.NewIPAC(), 5, cluster.DefaultMigrationModel()); err != nil {
		t.Fatal(err)
	}
	sc := obs.New(obs.Config{})
	passes := 0
	snapshot := observeFunc(func(ev check.Event) {
		if ev.Kind != check.EvConsolidate {
			return
		}
		passes++
		if len(ev.ActiveBefore) != cfg.NumServers {
			t.Errorf("pass at period %d snapshots %d servers, want %d", ev.Step, len(ev.ActiveBefore), cfg.NumServers)
		}
	})
	tb.AttachProbe(probe.New(sc, snapshot))
	if _, err := tb.Run(40*cfg.Period, nil); err != nil {
		t.Fatal(err)
	}
	if passes == 0 {
		t.Fatal("optimizer never ran")
	}
	switched := 0
	for _, d := range sc.Audit().Records() {
		if d.Component != "IPAC" {
			continue
		}
		if d.Action != "server-off" && d.Action != "server-on" || tb.DC.Server(d.Target) == nil {
			t.Errorf("pass audit %+v names no server", d)
		}
		switched++
	}
	if switched == 0 {
		t.Fatal("no pass switched a server: the audit is untested")
	}
}

// observeFunc adapts a function to probe.Subscriber.
type observeFunc func(check.Event)

func (f observeFunc) Observe(ev check.Event) { f(ev) }
