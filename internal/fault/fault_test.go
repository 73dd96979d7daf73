package fault

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"vdcpower/internal/race"
	"vdcpower/internal/telemetry"
)

// chaosProfile enables every fault class with moderate probabilities.
func chaosProfile() Profile {
	return Profile{
		Seed:      42,
		Sensor:    SensorProfile{DropoutProb: 0.2, OutlierProb: 0.1, OutlierFactor: 10, StuckProb: 0.1, StuckPeriods: 2},
		DVFS:      DVFSProfile{FailProb: 0.2},
		Migration: MigrationProfile{AbortProb: 0.3, AbortAfterPasses: 2, MaxRetries: 2, BackoffSec: 5},
		Optimizer: OptimizerProfile{ErrorProb: 0.2},
		Crash:     CrashProfile{At: []CrashSpec{{Step: 3, Server: "srv-0001"}}, Prob: 0.01},
		Serve:     ServeProfile{ErrorProb: 0.5, UntilStep: 10},
	}
}

func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	if v, k := in.SensorRead(0, "app", 1.5); v != 1.5 || k != None {
		t.Fatalf("nil SensorRead perturbed: %v %v", v, k)
	}
	if in.DVFSFails(0, "s") {
		t.Fatal("nil DVFSFails fired")
	}
	if in.MigrationAborts("vm", 0) {
		t.Fatal("nil MigrationAborts fired")
	}
	if in.MigrationMaxRetries() != 0 || in.MigrationBackoff(1) != 0 {
		t.Fatal("nil migration tuning nonzero")
	}
	if in.OptimizerError("IPAC") != nil || in.StepError(0) != nil {
		t.Fatal("nil injected an error")
	}
	if in.Crashes(0, []string{"a"}) != nil {
		t.Fatal("nil crashed a server")
	}
	if in.Injected() != 0 || in.Log() != nil || in.InjectedByKind() != nil {
		t.Fatal("nil has state")
	}
	in.SetStep(3)
	in.AttachMetrics(nil)
	if in.Step() != 0 {
		t.Fatal("nil has a step")
	}
	if in.Profile().Enabled() {
		t.Fatal("nil profile enabled")
	}
}

// drive runs a fixed consultation schedule and returns a transcript of
// every decision.
func drive(in *Injector) string {
	var b strings.Builder
	for step := 0; step < 20; step++ {
		in.SetStep(step)
		for _, app := range []string{"App1", "App2"} {
			v, k := in.SensorRead(step, app, 1.0)
			if math.IsNaN(v) {
				b.WriteString("nan ")
			}
			b.WriteString(k.String())
			b.WriteByte(' ')
		}
		for _, srv := range []string{"S1", "S2"} {
			if in.DVFSFails(step, srv) {
				b.WriteString("dvfs:" + srv + " ")
			}
		}
		for a := 0; a <= in.MigrationMaxRetries(); a++ {
			if !in.MigrationAborts("vm-7", a) {
				break
			}
		}
		if err := in.OptimizerError("IPAC"); err != nil {
			b.WriteString("opt ")
		}
		for _, c := range in.Crashes(step, []string{"S1", "S2", "S3"}) {
			b.WriteString("crash:" + c.Server + ":" + string(c.Policy) + " ")
		}
		if err := in.StepError(step); err != nil {
			b.WriteString("step ")
		}
		b.WriteByte('\n')
	}
	for _, r := range in.Log() {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestSameSeedIsReproducible(t *testing.T) {
	a := drive(New(chaosProfile()))
	b := drive(New(chaosProfile()))
	if a != b {
		t.Fatalf("same-seed transcripts differ:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, "crash:srv-0001") {
		t.Fatalf("scheduled crash missing from transcript:\n%s", a)
	}
	other := chaosProfile()
	other.Seed = 43
	if drive(New(other)) == a {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestDecisionsAreCallOrderIndependent(t *testing.T) {
	// The same (step, target) decision must not depend on what else was
	// consulted before it — the property a shared rand stream lacks.
	a, b := New(chaosProfile()), New(chaosProfile())
	a.SetStep(5)
	b.SetStep(5)
	// Injector b burns unrelated decisions first.
	b.SensorRead(5, "AppX", 2.0)
	b.DVFSFails(5, "SX")
	b.OptimizerError("pMapper")
	va, ka := a.SensorRead(5, "App1", 1.0)
	vb, kb := b.SensorRead(5, "App1", 1.0)
	sameNaN := math.IsNaN(va) && math.IsNaN(vb)
	//lint:ignore floatcompare determinism contract: identical decisions produce identical bits
	if ka != kb || (va != vb && !sameNaN) {
		t.Fatalf("decision depends on call order: (%v,%v) vs (%v,%v)", va, ka, vb, kb)
	}
	if a.DVFSFails(5, "S1") != b.DVFSFails(5, "S1") {
		t.Fatal("DVFS decision depends on call order")
	}
	if a.MigrationAborts("vm-1", 0) != b.MigrationAborts("vm-1", 0) {
		t.Fatal("migration decision depends on call order")
	}
}

func TestSensorFaultRates(t *testing.T) {
	p := Profile{Seed: 7, Sensor: SensorProfile{DropoutProb: 0.25}}
	in := New(p)
	drops := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if v, k := in.SensorRead(i, "app", 1.0); k == SensorDropout {
			if !math.IsNaN(v) {
				t.Fatal("dropout did not return NaN")
			}
			drops++
		}
	}
	got := float64(drops) / n
	if got < 0.2 || got > 0.3 {
		t.Fatalf("dropout rate %.3f far from configured 0.25", got)
	}
	if in.Injected() != drops || in.InjectedByKind()[SensorDropout] != drops {
		t.Fatal("injection accounting mismatch")
	}
}

func TestSensorStuckFreezesValue(t *testing.T) {
	p := Profile{Seed: 1, Sensor: SensorProfile{StuckProb: 1, StuckPeriods: 3}}
	in := New(p)
	v0, k := in.SensorRead(0, "app", 1.5)
	if k != SensorStuck || v0 != 1.5 {
		t.Fatalf("first read: %v %v", v0, k)
	}
	// The next two reads return the frozen value regardless of input.
	for i := 1; i <= 2; i++ {
		v, k := in.SensorRead(i, "app", 9.9)
		if k != SensorStuck || v != 1.5 {
			t.Fatalf("read %d: got %v %v, want frozen 1.5", i, v, k)
		}
	}
	// Freeze expired: with StuckProb 1 it re-freezes at the new value.
	if v, _ := in.SensorRead(3, "app", 9.9); v != 9.9 {
		t.Fatalf("freeze did not expire: %v", v)
	}
	// Independent sensors do not share stuck state.
	if v, _ := in.SensorRead(1, "other", 4.4); v != 4.4 {
		t.Fatalf("stuck state leaked across targets: %v", v)
	}
}

func TestSensorOutlierScales(t *testing.T) {
	in := New(Profile{Seed: 2, Sensor: SensorProfile{OutlierProb: 1}})
	v, k := in.SensorRead(0, "app", 2.0)
	if k != SensorOutlier || v != 2.0*defaultOutlierFactor {
		t.Fatalf("outlier: %v %v", v, k)
	}
}

func TestMigrationRetrySchedule(t *testing.T) {
	in := New(Profile{Seed: 3, Migration: MigrationProfile{AbortProb: 1, MaxRetries: 3, BackoffSec: 2}})
	if in.MigrationMaxRetries() != 3 {
		t.Fatalf("retries = %d", in.MigrationMaxRetries())
	}
	wants := []float64{2, 4, 8, 16, 16} // doubling, capped at 8x base
	for i, w := range wants {
		//lint:ignore floatcompare exact doubling of an exact base
		if got := in.MigrationBackoff(i); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", i, got, w)
		}
	}
	if !in.MigrationAborts("vm", 0) {
		t.Fatal("abort_prob 1 did not abort")
	}
}

func TestInjectedErrorsAreTyped(t *testing.T) {
	in := New(Profile{Seed: 4, Optimizer: OptimizerProfile{ErrorProb: 1}, Serve: ServeProfile{ErrorProb: 1}})
	in.SetStep(6)
	err := in.OptimizerError("IPAC")
	if err == nil || !IsInjected(err) {
		t.Fatalf("optimizer error not typed: %v", err)
	}
	if !strings.Contains(err.Error(), "optimizer_error") || !strings.Contains(err.Error(), "step 6") {
		t.Fatalf("error text: %v", err)
	}
	if serr := in.StepError(2); serr == nil || !IsInjected(serr) {
		t.Fatalf("step error not typed: %v", serr)
	}
	if IsInjected(bytes.ErrTooLarge) {
		t.Fatal("real error classified as injected")
	}
}

// TestIsInjectedNilAllocatesNothing: harnesses ask about every pass's
// error, most of them nil.
func TestIsInjectedNilAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	if n := testing.AllocsPerRun(100, func() { IsInjected(nil) }); n != 0 {
		t.Fatalf("IsInjected(nil) allocates %v times", n)
	}
}

func TestServeInjectionStopsAtUntilStep(t *testing.T) {
	in := New(Profile{Seed: 5, Serve: ServeProfile{ErrorProb: 1, UntilStep: 4}})
	for s := 0; s < 4; s++ {
		if in.StepError(s) == nil {
			t.Fatalf("step %d should fail", s)
		}
	}
	for s := 4; s < 10; s++ {
		if in.StepError(s) != nil {
			t.Fatalf("injection did not stop at step %d", s)
		}
	}
}

func TestScheduledAndRandomCrashes(t *testing.T) {
	p := Profile{Seed: 6, Crash: CrashProfile{
		At:     []CrashSpec{{Step: 2, Server: "S2", Policy: Lose}, {Step: 5}},
		Policy: Evacuate,
	}}
	in := New(p)
	if got := in.Crashes(0, []string{"S1", "S2"}); got != nil {
		t.Fatalf("step 0 crashed %v", got)
	}
	got := in.Crashes(2, []string{"S1", "S2"})
	if len(got) != 1 || got[0].Server != "S2" || got[0].Policy != Lose {
		t.Fatalf("scheduled crash = %v", got)
	}
	// The unnamed crash picks one of the candidates deterministically.
	a := in.Crashes(5, []string{"S1", "S2", "S3"})
	b := New(p).Crashes(5, []string{"S1", "S2", "S3"})
	if len(a) != 1 || a[0].Policy != Evacuate || len(b) != 1 || a[0].Server != b[0].Server {
		t.Fatalf("unnamed crash not deterministic: %v vs %v", a, b)
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	src := `{
		"seed": 11,
		"sensor": {"dropout_prob": 0.1, "outlier_prob": 0.05},
		"migration": {"abort_prob": 0.3, "max_retries": 2},
		"crash": {"at": [{"step": 8, "policy": "evacuate"}]}
	}`
	p, err := ReadProfile(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 11 || p.Sensor.DropoutProb != 0.1 || p.Migration.MaxRetries != 2 || len(p.Crash.At) != 1 {
		t.Fatalf("profile lost fields: %+v", p)
	}
	if !p.Enabled() {
		t.Fatal("profile should be enabled")
	}
	if (Profile{}).Enabled() {
		t.Fatal("zero profile should be disabled")
	}
}

func TestProfileValidation(t *testing.T) {
	bad := []Profile{
		{Sensor: SensorProfile{DropoutProb: 1.5}},
		{Sensor: SensorProfile{OutlierFactor: -1, OutlierProb: 0.1}},
		{DVFS: DVFSProfile{FailProb: -0.1}},
		{Migration: MigrationProfile{MaxRetries: -1}},
		{Migration: MigrationProfile{BackoffSec: -1}},
		{Crash: CrashProfile{Policy: "explode"}},
		{Crash: CrashProfile{At: []CrashSpec{{Step: -1}}}},
		{Crash: CrashProfile{At: []CrashSpec{{Step: 1, Policy: "explode"}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %d validated: %+v", i, p)
		}
	}
	if err := chaosProfile().Validate(); err != nil {
		t.Fatalf("chaos profile rejected: %v", err)
	}
	if _, err := ReadProfile(strings.NewReader(`{"sensor": {"dropout_prob": 2}}`)); err == nil {
		t.Fatal("invalid profile accepted")
	}
	if _, err := ReadProfile(strings.NewReader(`{"no_such_field": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ReadProfile(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadProfileFromFile(t *testing.T) {
	if _, err := LoadProfile("/nonexistent/profile.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestMetricsCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	in := New(Profile{Seed: 8, DVFS: DVFSProfile{FailProb: 1}})
	in.AttachMetrics(reg)
	in.DVFSFails(0, "S1")
	in.DVFSFails(1, "S1")
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `vdcpower_faults_injected_total{kind="dvfs_failure"} 2`) {
		t.Fatalf("counter missing:\n%s", buf.String())
	}
}

func TestConcurrentUseIsRaceFree(t *testing.T) {
	// serve shares one injector between its loop and HTTP handlers; the
	// chaos-smoke CI job runs this package under -race.
	in := New(chaosProfile())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in.SetStep(i)
				in.SensorRead(i, "app", 1.0)
				in.StepError(i)
				_ = in.Injected()
				_ = in.Log()
			}
		}(g)
	}
	wg.Wait()
	if in.Injected() == 0 {
		t.Fatal("nothing injected")
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{None, SensorDropout, SensorOutlier, SensorStuck, DVFSFailure,
		MigrationAbort, OptimizerError, ServerCrash, StepError}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") || seen[s] {
			t.Fatalf("bad or duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if !strings.Contains(Kind(99).String(), "kind(99)") {
		t.Fatal("unknown kind not labeled")
	}
	r := Record{Kind: MigrationAbort, Step: 3, Target: "vm-1", Detail: "attempt 0"}
	if !strings.Contains(r.String(), "migration_abort") || !strings.Contains(r.String(), "vm-1") {
		t.Fatalf("record render: %s", r)
	}
}
