package bench

import (
	"bytes"
	"fmt"
	"sync"

	"vdcpower/internal/fault"
	"vdcpower/internal/packing"
	"vdcpower/internal/testbed"
	"vdcpower/internal/trace"
	"vdcpower/internal/workload"
)

// Scale selects the fixture sizes every scenario derives its work from.
// Results are only comparable within one scale (Compare enforces this).
type Scale string

// Scales.
const (
	// ScaleFull is the reduced-but-faithful scale the root bench_test.go
	// benchmarks always ran at: 4 apps on 2 servers, a 300-VM 2-day
	// trace, two Fig. 6 sizes. Figures keep their shapes; iterations
	// stay under a second.
	ScaleFull Scale = "full"
	// ScaleQuick is the CI-smoke scale: the smallest configuration that
	// still exercises every code path. Used by the perf-smoke gate,
	// where wall-clock budget matters more than figure fidelity.
	ScaleQuick Scale = "quick"
)

// ParseScale validates a scale string.
func ParseScale(s string) (Scale, error) {
	switch Scale(s) {
	case ScaleFull, ScaleQuick:
		return Scale(s), nil
	}
	return "", fmt.Errorf("bench: unknown scale %q (full or quick)", s)
}

// Env carries the scale-dependent configuration and the shared fixtures
// of a benchmark session. Fixtures are built once per Env (sync.Once)
// so scenarios time the system under test, not fixture generation: the
// Fig. 6 trace used to be regenerated per benchmark iteration, which
// timed the workload generator instead of the optimizer.
//
// An Env is safe for concurrent use by the fixture accessors; scenarios
// themselves run sequentially (one timed op at a time).
type Env struct {
	scale      Scale
	moduleRoot string

	traceOnce sync.Once
	trace     *workload.Trace
	traceErr  error

	poolOnce sync.Once
	pool     *packing.Pool

	corpusOnce sync.Once
	corpus     []byte
	corpusErr  error
}

// NewEnv builds an environment at the given scale.
func NewEnv(scale Scale) *Env {
	return &Env{scale: scale, moduleRoot: "."}
}

// Scale returns the environment's scale.
func (e *Env) Scale() Scale { return e.scale }

// SetModuleRoot points the lint scenario at the module to analyze —
// any directory inside it works (the loader searches upward for
// go.mod). The default "." suits cmd/vdcbench run from the repository;
// tests running in a package directory may pass their own location.
func (e *Env) SetModuleRoot(dir string) { e.moduleRoot = dir }

// ModuleRoot returns the directory the lint scenario loads from.
func (e *Env) ModuleRoot() string { return e.moduleRoot }

// TestbedConfig returns the figure-testbed configuration (Figs. 2-5).
func (e *Env) TestbedConfig() testbed.Config {
	cfg := testbed.DefaultConfig()
	switch e.scale {
	case ScaleQuick:
		cfg.NumApps = 2
		cfg.NumServers = 2
		cfg.IdentPeriods = 40
		cfg.IdentWarmupSec = 10
	default: // ScaleFull
		cfg.NumApps = 4
		cfg.NumServers = 2
		cfg.IdentPeriods = 80
		cfg.IdentWarmupSec = 20
	}
	return cfg
}

// Trace returns the shared Fig. 6 workload trace, generating it on
// first use and caching it for every scenario and rep thereafter.
func (e *Env) Trace() (*workload.Trace, error) {
	e.traceOnce.Do(func() {
		gc := workload.GenConfig{NumVMs: 300, Days: 2, StepsPerHour: 4, Seed: 2008}
		if e.scale == ScaleQuick {
			gc.NumVMs, gc.Days = 60, 1
		}
		e.trace, e.traceErr = workload.Generate(gc)
	})
	return e.trace, e.traceErr
}

// Fig6Sizes returns the data-center sizes the Fig. 6 sweep visits.
func (e *Env) Fig6Sizes() []int {
	if e.scale == ScaleQuick {
		return []int{30}
	}
	return []int{60, 300}
}

// DCVMs returns the data-center size of the single-run dcsim scenarios
// (telemetry on/off, chaos, ablations).
func (e *Env) DCVMs() int {
	if e.scale == ScaleQuick {
		return 30
	}
	return 150
}

// ConcurrencyLevels returns the Fig. 4 sweep levels. The quick scale
// sweeps one level off the default concurrency (40), so the scenario
// exercises the model mismatch Fig. 4 is about instead of rerunning
// Fig. 2's simulation.
func (e *Env) ConcurrencyLevels() []int {
	if e.scale == ScaleQuick {
		return []int{80}
	}
	return []int{30, 50, 80}
}

// Setpoints returns the Fig. 5 sweep set points (seconds). The quick
// scale uses one set point off the default (1.0 s), for the same reason.
func (e *Env) Setpoints() []float64 {
	if e.scale == ScaleQuick {
		return []float64{0.8}
	}
	return []float64{0.6, 0.9, 1.3}
}

// LintPatterns returns the package patterns the lint scenario loads:
// the whole module at full scale, one small package at quick scale
// (loading+type-checking everything from source costs seconds).
func (e *Env) LintPatterns() []string {
	if e.scale == ScaleQuick {
		return []string{"./internal/power"}
	}
	return []string{"./..."}
}

// MinSlackPool returns the session-shared Minimum Slack search pool.
// The accessor is safe for concurrent use; the pool itself serves one
// search at a time, which holds because scenarios run sequentially.
// Sharing it across reps means the packing/minslack scenario measures
// the search at its allocation-free steady state (DESIGN §12).
func (e *Env) MinSlackPool() *packing.Pool {
	e.poolOnce.Do(func() { e.pool = packing.NewPool() })
	return e.pool
}

// ReplayCorpus returns the shared fabricated Google-usage corpus the
// trace scenarios decode, built once per Env so fixture generation
// never lands in a timed section. Same scale → byte-identical bytes.
func (e *Env) ReplayCorpus() ([]byte, error) {
	e.corpusOnce.Do(func() {
		cfg := trace.FabConfig{VMs: 200, Steps: 96, Seed: 2010, GapProb: 0.01, EmptyProb: 0.01}
		if e.scale == ScaleQuick {
			cfg.VMs, cfg.Steps = 40, 24
		}
		var buf bytes.Buffer
		_, e.corpusErr = trace.WriteGoogleUsage(&buf, cfg)
		e.corpus = buf.Bytes()
	})
	return e.corpus, e.corpusErr
}

// ChaosProfile returns the deterministic fault profile of the chaos
// scenario — the same fault classes as testdata/faults/smoke.json, so
// the benchmark tracks the cost of a degraded run with sensor noise,
// DVFS failures, migration aborts, optimizer errors and one crash.
func (e *Env) ChaosProfile() fault.Profile {
	return fault.Profile{
		Seed:      42,
		Sensor:    fault.SensorProfile{DropoutProb: 0.1, OutlierProb: 0.05},
		DVFS:      fault.DVFSProfile{FailProb: 0.05},
		Migration: fault.MigrationProfile{AbortProb: 0.3, MaxRetries: 2},
		Optimizer: fault.OptimizerProfile{ErrorProb: 0.1},
		Crash:     fault.CrashProfile{At: []fault.CrashSpec{{Step: 8, Policy: fault.Evacuate}}},
	}
}
