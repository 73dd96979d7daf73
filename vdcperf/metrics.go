package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"

	"vdcpower/internal/stats"
)

// metricDef names one reported metric. Bound is set for end-to-end
// metrics only: the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_speedup", "s/s", "higher", 0.20},
	{"step_p50_ms", "ms", "lower", 0.20},
	{"step_p90_ms", "ms", "lower", 0.20},
	{"allocs_per_step", "count", "lower", 0.06},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"power_w", "W", "lower", 0.08},
	{"slo_miss_pct", "%", "lower", 0.08},
}

// perLayer are the traced run's metrics, grouped by the layer whose
// public calls they time. Every workload reports every one of them; a
// layer the workload never calls reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Substrate: the DES kernel and the application simulator.
		{Name: "devs.drain_ms", Unit: "ms", Better: "lower"},
		{Name: "devs.events_per_step", Unit: "count", Better: "lower"},
		{Name: "devs.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "devs.allocs_per_step", Unit: "count", Better: "lower"},
		{Name: "devs.max_same_time", Unit: "count", Better: "lower"},
		{Name: "appsim.completed_per_step", Unit: "count", Better: "higher"},
		{Name: "appsim.queue_len", Unit: "count", Better: "lower"},
		{Name: "appsim.in_flight", Unit: "count", Better: "lower"},
		// Controller.
		{Name: "core.step_us", Unit: "us", Better: "lower"},
		{Name: "core.allocs_per_step", Unit: "count", Better: "lower"},
		{Name: "core.t90_err_ms", Unit: "ms", Better: "lower"},
		{Name: "mpc.solves_per_step", Unit: "count", Better: "lower"},
		{Name: "mpc.warm_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "mpc.relax_ratio", Unit: "ratio", Better: "lower"},
		{Name: "mpc.fallbacks", Unit: "count", Better: "lower"},
		// Arbitrator.
		{Name: "arbitrator.us", Unit: "us", Better: "lower"},
		{Name: "arbitrator.throttled_ratio", Unit: "ratio", Better: "lower"},
		{Name: "dcsim.step_self_ms", Unit: "ms", Better: "lower"},
		// Optimizer.
		{Name: "optimizer.pass_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "optimizer.pass_p90_ms", Unit: "ms", Better: "lower"},
		{Name: "optimizer.migrations_per_pass", Unit: "count", Better: "lower"},
		{Name: "optimizer.vetoed_per_pass", Unit: "count", Better: "lower"},
		{Name: "optimizer.allocs_per_pass", Unit: "count", Better: "lower"},
		{Name: "packing.nodes_per_pass", Unit: "count", Better: "lower"},
		{Name: "packing.widenings_per_pass", Unit: "count", Better: "lower"},
		{Name: "packing.nodes_per_migration", Unit: "count", Better: "lower"},
		// Serve and its always-on observers, and the dashboard traffic.
		{Name: "serve.step_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.allocs_per_step", Unit: "count", Better: "lower"},
		{Name: "serve.observer_overhead", Unit: "ratio", Better: "lower"},
		{Name: "serve.refresh_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.refresh_p90_ms", Unit: "ms", Better: "lower"},
	}
	for _, q := range []string{"p50", "p90"} {
		for _, rt := range routes {
			defs = append(defs, metricDef{Name: "serve.route_" + q + "_ms." + rt.name, Unit: "ms", Better: "lower"})
		}
	}
	for _, rt := range routes {
		defs = append(defs, metricDef{Name: "serve.route_bytes." + rt.name, Unit: "bytes", Better: "lower"})
	}
	return append(defs,
		// Host speed, set-up, input generation, load generator and tracer.
		metricDef{Name: "host.calibration_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "setup.testbed_new_s", Unit: "s", Better: "lower"},
		metricDef{Name: "setup.serve_new_s", Unit: "s", Better: "lower"},
		metricDef{Name: "setup.dcsim_s", Unit: "s", Better: "lower"},
		metricDef{Name: "workload.generate_s", Unit: "s", Better: "lower"},
		metricDef{Name: "load.late_p90_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	)
}()

// workloadDecl is a workload as BENCHMARK.json declares it.
type workloadDecl struct{ Name, Why string }

// benchmarkFile is the part of BENCHMARK.json the code defines.
type benchmarkFile struct {
	Workloads []workloadDecl
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

// checkBenchmarkFile fails when the BENCHMARK.json at path disagrees with
// the code on a workload or a metric, in its name, why, unit, direction,
// bound or place in the list. Every run checks it, so the file cannot
// drift from what the runs report.
func checkBenchmarkFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var decl []workloadDecl
	for _, w := range workloads {
		decl = append(decl, workloadDecl{w.name, w.why})
	}
	return errors.Join(
		sameList(path, "workloads", f.Workloads, decl),
		sameList(path, "end_to_end", f.EndToEnd, endToEnd),
		sameList(path, "per_layer", f.PerLayer, perLayer))
}

// sameList reports the first entry at which the file's list and the
// code's differ.
func sameList[T comparable](path, list string, file, code []T) error {
	for i := 0; i < max(len(file), len(code)); i++ {
		switch {
		case i >= len(file):
			return fmt.Errorf("%s %s lacks %+v", path, list, code[i])
		case i >= len(code):
			return fmt.Errorf("%s %s has %+v, which the code does not define", path, list, file[i])
		case file[i] != code[i]:
			return fmt.Errorf("%s %s[%d] is %+v, the code defines %+v", path, list, i, file[i], code[i])
		}
	}
	return nil
}

// pick names one quantile of a sample.
type pick struct {
	name string
	xs   []float64
	q    float64
}

// quantiles stores each pick's quantile in m under its name.
func quantiles(m map[string]float64, picks ...pick) error {
	for _, p := range picks {
		v, err := quantile(p.xs, p.q)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		m[p.name] = v
	}
	return nil
}

// minTail is the fewest samples a reported percentile must have beyond
// it; a percentile with fewer is noise, so quantile refuses it.
const minTail = 10

// quantile returns the q-quantile (0 < q < 1) of xs by linear
// interpolation, or an error when fewer than minTail samples lie beyond
// it on the thinner side.
func quantile(xs []float64, q float64) (float64, error) {
	// The epsilon keeps float rounding in 1-q from refusing an exact tail.
	if beyond := float64(len(xs)) * math.Min(q, 1-q); beyond < minTail-1e-9 {
		return 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, want >= %d", 100*q, len(xs), beyond, minTail)
	}
	return stats.Percentile(xs, 100*q), nil
}

// hashWords is FNV-64a over the little-endian bytes of ws. A run's digest
// is hashWords over its per-step hashes, in order.
func hashWords(ws ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], w)
		_, _ = h.Write(b[:]) // hash.Hash.Write never returns an error
	}
	return h.Sum64()
}

// hashFloats hashes the IEEE-754 bits of xs, so two step outputs hash
// equal only when they are bit-identical.
func hashFloats(xs ...float64) uint64 {
	ws := make([]uint64, len(xs))
	for i, x := range xs {
		ws[i] = math.Float64bits(x)
	}
	return hashWords(ws...)
}
