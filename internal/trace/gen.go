package trace

// gen.go fabricates schema-valid raw corpora in the Google and Azure
// on-disk formats. The real traces are hundreds of gigabytes and are
// not redistributable, so tests, fuzz seeds, benchmarks, and the
// committed testdata mini-corpus are all produced here: deterministic
// (seeded, hash-driven), streamed row by row (a million-row corpus
// costs O(1) memory to write), and deliberately messy in the ways the
// decoders must survive — sub-grid sampling, per-VM jitter, occasional
// gaps and empty fields.

import (
	"bufio"
	"fmt"
	"io"
)

// FabConfig parameterizes corpus fabrication.
type FabConfig struct {
	// VMs is the number of distinct VMs (tasks for the Google format).
	VMs int
	// Steps is the number of 15-minute grid steps each VM spans.
	Steps int
	// SamplesPerStep is how many raw rows land inside one grid step
	// (Google usage reports every 300 s → 3; Azure every 300 s → 3).
	// Default 3.
	SamplesPerStep int
	// Seed drives every value; same config → byte-identical corpus.
	Seed int64
	// GapProb is the per-(VM, step) probability that a whole step's
	// rows are dropped, exercising the resampler's gap policy. Gaps
	// never exceed one step, and never hit a VM's first or last step.
	GapProb float64
	// EmptyProb is the per-row probability of an empty utilization
	// field (the Google trace has them); decoders must skip, not fail.
	EmptyProb float64
}

func (c FabConfig) withDefaults() FabConfig {
	if c.SamplesPerStep <= 0 {
		c.SamplesPerStep = 3
	}
	return c
}

// Rows returns the number of data rows the config fabricates, before
// gap and empty-field drops.
func (c FabConfig) Rows() int {
	c = c.withDefaults()
	return c.VMs * c.Steps * c.SamplesPerStep
}

// fabUtil is the ground-truth utilization for (vm, step): a hashed
// base level plus a small per-step wobble, in (0, 1).
func fabUtil(seed int64, vm string, step int) float64 {
	base := 0.1 + 0.6*hashUnit(seed, "fab-base", vm, 0)
	wobble := 0.2 * (hashUnit(seed, "fab-wobble", vm, step) - 0.5)
	return clamp01(base + wobble)
}

// fabGap reports whether (vm, step) is a dropped step. First and last
// steps never drop, so every VM's span is anchored.
func fabGap(cfg FabConfig, vm string, step int) bool {
	if cfg.GapProb <= 0 || step == 0 || step == cfg.Steps-1 {
		return false
	}
	// No two consecutive gaps: a gap at step s requires s-1 present.
	if hashUnit(cfg.Seed, "fab-gap", vm, step) >= cfg.GapProb {
		return false
	}
	return hashUnit(cfg.Seed, "fab-gap", vm, step-1) >= cfg.GapProb || step-1 == 0
}

// WriteGoogleUsage fabricates a Google cluster-trace task-usage CSV:
// start_us, end_us, job, task, machine, mean_cpu_rate, with rows
// interleaved across tasks in time order (as the real trace shards
// are). Row count is Rows() minus gap drops.
func WriteGoogleUsage(w io.Writer, cfg FabConfig) (int, error) {
	cfg = cfg.withDefaults()
	bw := bufio.NewWriter(w)
	rows := 0
	sub := DefaultStepSeconds / float64(cfg.SamplesPerStep)
	for step := 0; step < cfg.Steps; step++ {
		for i := 0; i < cfg.SamplesPerStep; i++ {
			for v := 0; v < cfg.VMs; v++ {
				job := 6250000000 + int64(v)/8
				task := int64(v) % 8
				vm := fmt.Sprintf("j%d-t%d", job, task)
				if fabGap(cfg, vm, step) {
					continue
				}
				startUS := int64((float64(step)*DefaultStepSeconds + float64(i)*sub) * 1e6)
				endUS := startUS + int64(sub*1e6)
				util := ""
				if hashUnit(cfg.Seed, "fab-empty", vm, step*cfg.SamplesPerStep+i) >= cfg.EmptyProb {
					util = fmt.Sprintf("%.5f", fabUtil(cfg.Seed, vm, step))
				}
				if _, err := fmt.Fprintf(bw, "%d,%d,%d,%d,m%04d,%s\n", startUS, endUS, job, task, v%500, util); err != nil {
					return rows, err
				}
				rows++
			}
		}
	}
	return rows, bw.Flush()
}

// WriteAzureVM fabricates an Azure public-dataset VM CSV: timestamp
// (seconds), vm id, min/max/avg CPU percent, with a header row (the
// real dataset ships one; the decoder skips it).
func WriteAzureVM(w io.Writer, cfg FabConfig) (int, error) {
	cfg = cfg.withDefaults()
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "timestamp,vm_id,min_cpu,max_cpu,avg_cpu"); err != nil {
		return 0, err
	}
	rows := 0
	sub := DefaultStepSeconds / float64(cfg.SamplesPerStep)
	for step := 0; step < cfg.Steps; step++ {
		for i := 0; i < cfg.SamplesPerStep; i++ {
			for v := 0; v < cfg.VMs; v++ {
				id := fmt.Sprintf("vm%06d", v)
				vm := "az-" + id
				if fabGap(cfg, vm, step) {
					continue
				}
				ts := int64(float64(step)*DefaultStepSeconds + float64(i)*sub)
				avg := ""
				if hashUnit(cfg.Seed, "fab-empty", vm, step*cfg.SamplesPerStep+i) >= cfg.EmptyProb {
					avg = fmt.Sprintf("%.3f", 100*fabUtil(cfg.Seed, vm, step))
				}
				pct := 100 * fabUtil(cfg.Seed, vm, step)
				if _, err := fmt.Fprintf(bw, "%d,%s,%.3f,%.3f,%s\n", ts, id, pct*0.5, clampPct(pct*1.5), avg); err != nil {
					return rows, err
				}
				rows++
			}
		}
	}
	return rows, bw.Flush()
}

func clampPct(p float64) float64 {
	if p > 100 {
		return 100
	}
	return p
}
