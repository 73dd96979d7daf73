package probe

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/fault"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/packing"
	"vdcpower/internal/power"
	"vdcpower/internal/race"
	"vdcpower/internal/telemetry"
)

func TestNewDropsNilSubscribers(t *testing.T) {
	if p := New(); p != nil {
		t.Fatal("a probe with no subscribers is not nil")
	}
	if p := New(nil, Metrics(nil)); p != nil {
		t.Fatal("a probe over nil observers is not nil")
	}
	var p *Probe
	p.Emit(check.Event{Kind: check.EvStep}) // must not panic
	if err := p.Err(); err != nil {
		t.Fatalf("nil probe verdict = %v", err)
	}
}

// failing is an invariant that rejects every step event.
type failing struct{}

func (failing) Name() string { return "test/failing" }

func (failing) Check(ev check.Event) error {
	if ev.Kind == check.EvStep {
		return errors.New("rejected")
	}
	return nil
}

func TestErrIsTheCheckerVerdict(t *testing.T) {
	ck := check.New(failing{})
	p := New(Metrics(telemetry.NewRegistry()), ck)
	p.Emit(check.Event{Kind: check.EvInit})
	if err := p.Err(); err != nil {
		t.Fatalf("verdict before any violation = %v", err)
	}
	p.Emit(check.Event{Kind: check.EvStep})
	if err := p.Err(); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("verdict = %v, want the checker's violation", err)
	}
}

func prom(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestMetricsResolveGroupsOnFirstFact pins when each family group appears
// in the exposition, the same in every harness: an init fact resolves
// nothing, a first drain resolves the whole period group, and the first
// pass resolves the pass group, degraded passes included.
func TestMetricsResolveGroupsOnFirstFact(t *testing.T) {
	for _, apps := range [][]string{{"App1", "App2"}, nil} {
		reg := telemetry.NewRegistry()
		p := New(Metrics(reg))
		p.Emit(check.Event{Kind: check.EvInit, Apps: apps})
		if got := prom(t, reg); got != "" {
			t.Fatalf("init fact with apps %q published:\n%s", apps, got)
		}
		rep := &optimizer.Report{Migrations: 2}
		p.Emit(check.Event{Kind: check.EvWatchdog, Policy: "watchdog", Report: rep, Degraded: true})
		got := prom(t, reg)
		for _, want := range []string{
			"vdcpower_migrations_total 2", "vdcpower_migration_vetoes_total 0", "vdcpower_bnb_nodes_total 0",
			"vdcpower_watchdog_passes_total 1", "vdcpower_degraded_passes_total 1",
		} {
			if !strings.Contains(got, want) {
				t.Errorf("apps %q: after a degraded first pass the exposition lacks %q:\n%s", apps, want, got)
			}
		}
		if strings.Contains(got, "vdcpower_degraded_steps_total") || strings.Contains(got, "vdcpower_power_watts") {
			t.Errorf("apps %q: a pass published a family it does not bear on:\n%s", apps, got)
		}
		p.Emit(check.Event{Kind: check.EvConsolidate, Policy: "IPAC", Report: rep, Nodes: 5})
		if got := prom(t, reg); !strings.Contains(got, `vdcpower_optimizer_passes_total{policy="IPAC"} 1`) ||
			!strings.Contains(got, "vdcpower_degraded_passes_total 1") || !strings.Contains(got, "vdcpower_bnb_nodes_total 5") {
			t.Errorf("apps %q: a clean consolidation pass miscounted:\n%s", apps, got)
		}
	}

	reg := telemetry.NewRegistry()
	p := New(Metrics(reg))
	p.Emit(check.Event{Kind: check.EvInit, Apps: []string{"App1", "App2"}})
	p.Emit(check.Event{Kind: check.EvGuard, Guard: check.GuardObservation{Aborted: true, Tripped: true}})
	got := prom(t, reg)
	for _, want := range []string{
		"vdcpower_control_periods_total 0", "vdcpower_terminal_relaxations_total 0",
		"vdcpower_power_watts 0", `vdcpower_t90_seconds_count{app="App2"} 0`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("after an aborted first drain the exposition lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "vdcpower_migrations_total") {
		t.Errorf("a drain published the pass group:\n%s", got)
	}
}

// factLog renders every pass fact it observes, copying what it needs
// during delivery.
type factLog []string

func (l *factLog) Observe(ev check.Event) {
	*l = append(*l, fmt.Sprintf("%s %s step=%d span=%s degraded=%t overloaded=%d before=%v migrations=%d nodes=%d widenings=%d",
		ev.Kind, ev.Policy, ev.Step, ev.Span, ev.Degraded, ev.OverloadedBefore, ev.ActiveBefore, ev.Report.Migrations, ev.Nodes, ev.Widenings))
}

// searcher is a consolidator whose search effort the test advances.
type searcher struct {
	optimizer.Consolidator
	st packing.SearchStats
}

func (s *searcher) SearchStats() *packing.SearchStats { return &s.st }

// TestPassReportsEachPassOnce drives the pass driver through its three
// outcomes: a clean pass and an injected failure each emit one fact with
// the servers overloaded and active before the pass and the search
// effort spent in it; a real failure emits nothing and returns its error.
func TestPassReportsEachPassOnce(t *testing.T) {
	a, b := cluster.NewServer("a", power.TypeHighEnd()), cluster.NewServer("b", power.TypeHighEnd())
	dc, err := cluster.NewDataCenter([]*cluster.Server{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.Place(&cluster.VM{ID: "v", Demand: 1e3, MemoryGB: 1}, a); err != nil {
		t.Fatal(err)
	}
	dc.SleepIdle()
	cons := &searcher{Consolidator: optimizer.NewIPAC()}
	injected := fault.New(fault.Profile{Optimizer: fault.OptimizerProfile{ErrorProb: 1}}).OptimizerError("IPAC")
	failure := errors.New("real failure")
	var runErr error
	run := func() (optimizer.Report, error) {
		cons.st.Nodes += 3
		cons.st.Widenings++
		return optimizer.Report{Migrations: 2}, runErr
	}
	pass := Pass{Kind: check.EvConsolidate, Step: 7, TimeSec: 28, Span: "optimizer", Policy: "IPAC"}

	var log factLog
	p := New(&log)
	for _, c := range []struct {
		err          error
		degraded     bool
		wantErr      error
		factsEmitted int
	}{{nil, false, nil, 1}, {injected, true, nil, 1}, {failure, false, failure, 0}} {
		runErr = c.err
		n := len(log)
		rep, degraded, err := p.Pass(dc, pass, cons, run)
		if rep.Migrations != 2 || degraded != c.degraded || err != c.wantErr || len(log)-n != c.factsEmitted {
			t.Errorf("run error %v: report %+v, degraded %t, error %v, %d facts", c.err, rep, degraded, err, len(log)-n)
		}
	}
	want := []string{
		"consolidate IPAC step=7 span=optimizer degraded=false overloaded=1 before=[true false] migrations=2 nodes=3 widenings=1",
		"consolidate IPAC step=7 span=optimizer degraded=true overloaded=1 before=[true false] migrations=2 nodes=3 widenings=1",
	}
	if strings.Join(log, "\n") != strings.Join(want, "\n") {
		t.Fatalf("facts =\n%s\nwant\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}

	// A watchdog pass names no consolidator and counts no search.
	runErr = nil
	if _, _, err := p.Pass(dc, Pass{Kind: check.EvWatchdog, Policy: "watchdog"}, nil, run); err != nil {
		t.Fatal(err)
	}
	if got := log[len(log)-1]; !strings.HasSuffix(got, "nodes=0 widenings=0") {
		t.Fatalf("watchdog fact %q counts a search", got)
	}

	// Unobserved, the pass still runs and still degrades on an injected
	// error, and the driver itself allocates nothing.
	var none *Probe
	runErr = injected
	if _, degraded, err := none.Pass(dc, pass, cons, run); !degraded || err != nil {
		t.Fatalf("unobserved injected pass: degraded %t, error %v", degraded, err)
	}
	runErr = nil
	nodes := cons.st.Nodes
	if race.Enabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { none.Pass(dc, pass, cons, run) }); n != 0 {
		t.Fatalf("an unobserved pass allocates %v times", n)
	}
	if cons.st.Nodes == nodes {
		t.Fatal("an unobserved pass did not run")
	}
}
