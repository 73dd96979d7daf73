// Benchmarks regenerating every figure of the paper's evaluation section
// (Section VII) at reduced scale, plus the DESIGN.md ablations, the
// telemetry-overhead pair, the chaos profile and the vdclint pass.
//
// Every benchmark here is a thin adapter over the internal/bench
// scenario registry — the same registry cmd/vdcbench measures for the
// perf-regression gate — so `go test -bench` and vdcbench time identical
// work. Each adapter reports its scenario's headline metrics via
// b.ReportMetric, so `go test -bench=.` doubles as a results table:
//
//	Fig. 2  ms-mean-abs-err   distance of every app's mean p90 from 1000 ms
//	Fig. 3  surge power rise  watts added while absorbing the surge
//	Fig. 4  ms-mean-abs-err   across concurrency levels
//	Fig. 5  ms-mean-abs-err   across set points
//	Fig. 6  saving-pct        IPAC energy saving vs pMapper
package vdcpower_test

import (
	"testing"

	"vdcpower/internal/bench"
)

// benchEnv carries the full-scale shared fixtures (the Fig. 6 trace is
// generated once per `go test` process, never inside a timed loop).
var benchEnv = bench.NewEnv(bench.ScaleFull)

// benchRegistry is built once; scenarios are stateless closures.
var benchRegistry = bench.Default()

// benchScenario runs the named registry scenario as a Go benchmark:
// Prepare outside the timer, allocation tracking on, one scenario run
// per iteration, headline metrics reported from the final iteration.
func benchScenario(b *testing.B, name string) {
	b.Helper()
	sc, ok := benchRegistry.Get(name)
	if !ok {
		b.Fatalf("scenario %q not in the bench registry", name)
	}
	if sc.Prepare != nil {
		if err := sc.Prepare(benchEnv); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var last bench.Metrics
	for i := 0; i < b.N; i++ {
		m, err := sc.Run(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.StopTimer()
	for _, k := range last.Keys() {
		b.ReportMetric(last[k], k)
	}
}

func BenchmarkFig2ResponseTimeAllApps(b *testing.B) { benchScenario(b, "fig2/response-time") }

func BenchmarkFig3Surge(b *testing.B) { benchScenario(b, "fig3/surge") }

func BenchmarkFig4ConcurrencySweep(b *testing.B) { benchScenario(b, "fig4/concurrency-sweep") }

func BenchmarkFig5SetpointSweep(b *testing.B) { benchScenario(b, "fig5/setpoint-sweep") }

func BenchmarkFig6EnergyPerVM(b *testing.B) { benchScenario(b, "fig6/energy-per-vm") }

func BenchmarkFig6TelemetryOff(b *testing.B) { benchScenario(b, "fig6/telemetry-off") }

func BenchmarkFig6TelemetryOn(b *testing.B) { benchScenario(b, "fig6/telemetry-on") }

func BenchmarkFig6ObsOn(b *testing.B) { benchScenario(b, "fig6/obs-on") }

func BenchmarkChaos(b *testing.B) { benchScenario(b, "fig6/chaos") }

func BenchmarkAblationDVFS(b *testing.B) { benchScenario(b, "ablation/dvfs") }

func BenchmarkAblationWatchdog(b *testing.B) { benchScenario(b, "ablation/watchdog") }

func BenchmarkAblationMigrationCost(b *testing.B) { benchScenario(b, "ablation/migration-cost") }

func BenchmarkAblationEconomicMPC(b *testing.B) { benchScenario(b, "ablation/economic-mpc") }

func BenchmarkMPCSolve(b *testing.B) { benchScenario(b, "mpc/solve") }

func BenchmarkPackingMinSlack(b *testing.B) { benchScenario(b, "packing/minslack") }

func BenchmarkPackingFFD(b *testing.B) { benchScenario(b, "packing/ffd") }

func BenchmarkVdclint(b *testing.B) { benchScenario(b, "lint/module") }

func BenchmarkGuardWedge(b *testing.B) { benchScenario(b, "guard/wedge") }
