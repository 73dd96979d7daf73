package bench

import (
	"strings"
	"testing"
)

// wantMetrics maps every default scenario to the metric keys its Run
// must report — the contract BENCH_*.json consumers (EXPERIMENTS.md
// tables, the CI gate summary) read.
var wantMetrics = map[string][]string{
	"fig2/response-time":      {"ms-mean-abs-err"},
	"fig3/surge":              {"ms-recovery-err", "surge-power-rise-w"},
	"fig4/concurrency-sweep":  {"ms-mean-abs-err"},
	"fig5/setpoint-sweep":     {"ms-mean-abs-err"},
	"fig6/energy-per-vm":      {"saving-pct"},
	"fig6/telemetry-off":      {"energy-per-vm-wh", "optimizer-passes"},
	"fig6/telemetry-on":       {"energy-per-vm-wh", "optimizer-passes", "spans", "spans-dropped"},
	"fig6/obs-on":             {"audit-records", "energy-per-vm-wh", "optimizer-passes", "slo-bad-steps"},
	"fig6/chaos":              {"crashes", "degraded-passes", "energy-per-vm-wh", "failed-moves", "faults-injected"},
	"ablation/dvfs":           {"dvfs-saving-pct"},
	"ablation/watchdog":       {"overload-steps-avoided", "watchdog-moves"},
	"ablation/migration-cost": {"energy-cost-pct", "migrations-avoided"},
	"ablation/economic-mpc":   {"ghz-saved"},
	"mpc/solve":               {"solves"},
	"packing/minslack":        {"slack-gain-ghz"},
	"packing/ffd":             {"bins-used", "unplaced"},
	"lint/module":             {"packages"},
	"trace/ingest":            {"grid-mass", "grid-vms", "records"},
	"trace/replay":            {"distorted", "records", "trace-vms"},
	"guard/wedge":             {"completed", "events"},
}

// TestDefaultScenariosRunAtQuickScale executes every registered
// scenario once against the CI-smoke environment: each must prepare,
// run without error and report exactly its contracted metric keys.
func TestDefaultScenariosRunAtQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark scenario once")
	}
	env := NewEnv(ScaleQuick)
	for _, sc := range Default().All() {
		sc := sc
		t.Run(strings.ReplaceAll(sc.Name, "/", "_"), func(t *testing.T) {
			want, known := wantMetrics[sc.Name]
			if !known {
				t.Fatalf("scenario %q has no metric contract in wantMetrics; add one", sc.Name)
			}
			if sc.Prepare != nil {
				if err := sc.Prepare(env); err != nil {
					t.Fatalf("prepare: %v", err)
				}
			}
			m, err := sc.Run(env)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			got := strings.Join(m.Keys(), ",")
			if got != strings.Join(want, ",") {
				t.Errorf("metrics = [%s], want [%s]", got, strings.Join(want, ","))
			}
		})
	}
	// Every contracted scenario still exists.
	r := Default()
	for name := range wantMetrics {
		if _, ok := r.Get(name); !ok {
			t.Errorf("contracted scenario %q missing from the registry", name)
		}
	}
}

func TestEnvScaleParameters(t *testing.T) {
	full, quick := NewEnv(ScaleFull), NewEnv(ScaleQuick)
	if full.Scale() != ScaleFull || quick.Scale() != ScaleQuick {
		t.Fatal("Scale() does not round-trip")
	}
	if got := full.TestbedConfig(); got.NumApps != 4 || got.IdentPeriods != 80 {
		t.Errorf("full testbed config: %+v", got)
	}
	if got := quick.TestbedConfig(); got.NumApps != 2 || got.IdentPeriods != 40 {
		t.Errorf("quick testbed config: %+v", got)
	}
	if len(full.Fig6Sizes()) <= len(quick.Fig6Sizes()) {
		t.Error("full scale should sweep more Fig. 6 sizes")
	}
	if full.DCVMs() <= quick.DCVMs() {
		t.Error("full scale should simulate more VMs")
	}
	if len(full.ConcurrencyLevels()) <= len(quick.ConcurrencyLevels()) {
		t.Error("full scale should sweep more concurrency levels")
	}
	if len(full.Setpoints()) <= len(quick.Setpoints()) {
		t.Error("full scale should sweep more set points")
	}
	if full.LintPatterns()[0] != "./..." || quick.LintPatterns()[0] == "./..." {
		t.Errorf("lint patterns: full %v quick %v", full.LintPatterns(), quick.LintPatterns())
	}
	if p := quick.ChaosProfile(); p.Seed != 42 || len(p.Crash.At) != 1 {
		t.Errorf("chaos profile drifted: %+v", p)
	}

	if _, err := ParseScale("full"); err != nil {
		t.Error(err)
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("bad scale accepted")
	}

	e := NewEnv(ScaleQuick)
	if e.ModuleRoot() != "." {
		t.Errorf("default module root = %q", e.ModuleRoot())
	}
	e.SetModuleRoot("../..")
	if e.ModuleRoot() != "../.." {
		t.Error("SetModuleRoot did not stick")
	}
}

// TestTraceCachedPerEnv pins rule 2 of the package doc: the shared
// trace is generated once per Env and reused by every scenario.
func TestTraceCachedPerEnv(t *testing.T) {
	e := NewEnv(ScaleQuick)
	tr1, err := e.Trace()
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := e.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if tr1 != tr2 {
		t.Error("Trace() regenerated the fixture instead of caching it")
	}
	if n := tr1.NumVMs(); n != 60 {
		t.Errorf("quick trace has %d VMs, want 60", n)
	}
}
