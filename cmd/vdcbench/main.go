// Command vdcbench runs the internal/bench scenario registry — the same
// scenarios the root `go test -bench` adapters time — with warmup,
// repeated measured reps and robust statistics, and writes the session
// as a versioned BENCH_<label>.json. In compare mode it classifies two
// result files scenario-by-scenario as improved/regressed/unchanged and
// exits nonzero on any regression: the perf gate CI runs on every change.
//
// Usage:
//
//	vdcbench -list
//	vdcbench -label dev -out BENCH_dev.json
//	vdcbench -scale quick -reps 8 -scenarios 'fig6/.*'
//	vdcbench -baseline                      # (re)writes BENCH_baseline.json
//	vdcbench -compare -threshold 0.2 BENCH_baseline.json BENCH_dev.json
//	vdcbench -slowdown mpc/solve=2 -out slow.json   # gate self-test
//	vdcbench -cpuprofile prof/ -scenarios mpc/solve
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"vdcpower/internal/bench"
)

// BaselineFile is the committed baseline the -baseline mode maintains.
const BaselineFile = "BENCH_baseline.json"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its edges injected, so tests can drive the whole
// driver in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vdcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list       = fs.Bool("list", false, "list registered scenarios and exit")
		pattern    = fs.String("scenarios", "", "anchored regexp selecting scenarios to run (empty = all)")
		scaleStr   = fs.String("scale", string(bench.ScaleFull), "fixture scale: full or quick")
		reps       = fs.Int("reps", bench.DefaultReps, "measured repetitions per scenario")
		warmup     = fs.Int("warmup", bench.DefaultWarmup, "unmeasured warmup runs per scenario (negative = none)")
		label      = fs.String("label", "dev", "session label stamped into the result document")
		out        = fs.String("out", "", "output file (default BENCH_<label>.json)")
		baseline   = fs.Bool("baseline", false, "write the committed baseline ("+BaselineFile+") instead of -out")
		compare    = fs.Bool("compare", false, "compare two result files: vdcbench -compare OLD.json NEW.json")
		threshold  = fs.Float64("threshold", bench.DefaultThresholds().MinShift, "minimum relative median shift that can classify as a change")
		alpha      = fs.Float64("alpha", bench.DefaultThresholds().Alpha, "Mann-Whitney significance level")
		gateAllocs = fs.Bool("gate-allocs", false, "with -compare: also gate on allocs/op regressions")
		slowdown   = fs.String("slowdown", "", "name=factor: run the named scenario's op factor times (gate self-test)")
		cpuProfile = fs.String("cpuprofile", "", "directory for per-scenario CPU profiles of the measured reps")
		memProfile = fs.String("memprofile", "", "directory for per-scenario heap profiles taken after the measured reps")
		moduleRoot = fs.String("module-root", ".", "directory inside the module the lint scenario analyzes")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h printed the usage
		}
		return 2
	}

	if *compare {
		return runCompare(fs.Args(), bench.Thresholds{MinShift: *threshold, Alpha: *alpha, GateAllocs: *gateAllocs}, stdout, stderr)
	}
	if len(fs.Args()) != 0 {
		printf(stderr, "vdcbench: unexpected arguments %q (file arguments belong to -compare)\n", fs.Args())
		return 2
	}

	registry := bench.Default()
	if *list {
		for _, sc := range registry.All() {
			printf(stdout, "%-26s %s\n", sc.Name, sc.Doc)
		}
		return 0
	}

	scale, err := bench.ParseScale(*scaleStr)
	if err != nil {
		printf(stderr, "vdcbench: %v\n", err)
		return 2
	}
	scenarios, err := registry.Match(*pattern)
	if err != nil {
		printf(stderr, "vdcbench: %v\n", err)
		return 2
	}
	slowName, slowFactor, err := parseSlowdown(*slowdown)
	if err != nil {
		printf(stderr, "vdcbench: %v\n", err)
		return 2
	}
	for _, dir := range []string{*cpuProfile, *memProfile} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				printf(stderr, "vdcbench: %v\n", err)
				return 1
			}
		}
	}

	env := bench.NewEnv(scale)
	env.SetModuleRoot(*moduleRoot)
	doc := &bench.Doc{
		Schema:    bench.SchemaVersion,
		Label:     *label,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Scale:     string(scale),
		Warmup:    *warmup,
		Reps:      *reps,
	}
	if *baseline {
		doc.Label = "baseline"
		doc.CreatedAt = "" // the committed baseline must diff only when results change
		doc.GoVersion = ""
	}

	for _, sc := range scenarios {
		if sc.Name == slowName {
			sc = bench.WithSlowdown(sc, slowFactor)
			printf(stdout, "%-26s applying x%d slowdown\n", sc.Name, slowFactor)
		}
		opt := bench.Options{Warmup: *warmup, Reps: *reps}
		if err := attachProfiling(&opt, sc.Name, *cpuProfile, *memProfile); err != nil {
			printf(stderr, "vdcbench: %v\n", err)
			return 1
		}
		res, err := bench.Measure(sc, env, opt)
		if err != nil {
			printf(stderr, "vdcbench: %v\n", err)
			return 1
		}
		printf(stdout, "%-26s %11.3fms ±%.3fms  [%0.3f, %0.3f]  %s\n",
			res.Name, res.MedianNs/1e6, res.MADNs/1e6, res.CI95LoNs/1e6, res.CI95HiNs/1e6, metricsLine(res.Metrics))
		doc.Scenarios = append(doc.Scenarios, res)
	}

	path := *out
	if *baseline {
		path = BaselineFile
	} else if path == "" {
		path = "BENCH_" + *label + ".json"
	}
	if err := doc.WriteFile(path); err != nil {
		printf(stderr, "vdcbench: %v\n", err)
		return 1
	}
	printf(stdout, "wrote %s (%d scenarios, scale %s, %d reps)\n", path, len(doc.Scenarios), doc.Scale, doc.Reps)
	return 0
}

// runCompare loads two result documents and renders the verdict,
// returning 1 when any scenario regressed.
func runCompare(files []string, th bench.Thresholds, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		printlnf(stderr, "vdcbench: -compare wants exactly two files: OLD.json NEW.json")
		return 2
	}
	oldDoc, err := bench.ReadFile(files[0])
	if err != nil {
		printf(stderr, "vdcbench: %v\n", err)
		return 1
	}
	newDoc, err := bench.ReadFile(files[1])
	if err != nil {
		printf(stderr, "vdcbench: %v\n", err)
		return 1
	}
	c, err := bench.Compare(oldDoc, newDoc, th)
	if err != nil {
		printf(stderr, "vdcbench: %v\n", err)
		return 1
	}
	if err := c.WriteText(stdout); err != nil {
		printf(stderr, "vdcbench: %v\n", err)
		return 1
	}
	if regs := c.Regressions(); len(regs) > 0 {
		printf(stderr, "vdcbench: %d regression(s) against %s\n", len(regs), files[0])
		return 1
	}
	return 0
}

// parseSlowdown parses the -slowdown flag's name=factor form.
func parseSlowdown(s string) (string, int, error) {
	if s == "" {
		return "", 0, nil
	}
	name, factorStr, ok := strings.Cut(s, "=")
	if !ok {
		return "", 0, fmt.Errorf("bad -slowdown %q: want name=factor", s)
	}
	factor, err := strconv.Atoi(factorStr)
	if err != nil || factor < 2 {
		return "", 0, fmt.Errorf("bad -slowdown factor %q: want an integer >= 2", factorStr)
	}
	if _, ok := bench.Default().Get(name); !ok {
		return "", 0, fmt.Errorf("bad -slowdown scenario %q: not in the registry", name)
	}
	return name, factor, nil
}

// attachProfiling hangs CPU/heap profiling off the sampler's timed-reps
// hooks, so profiles cover measured work only — never Prepare or warmup.
func attachProfiling(opt *bench.Options, name, cpuDir, memDir string) error {
	stem := strings.ReplaceAll(name, "/", "_")
	if cpuDir != "" {
		path := filepath.Join(cpuDir, stem+".cpu.pprof")
		var f *os.File
		opt.BeforeTimed = func() error {
			var err error
			if f, err = os.Create(path); err != nil {
				return err
			}
			return pprof.StartCPUProfile(f)
		}
		prevAfter := opt.AfterTimed
		opt.AfterTimed = func() {
			pprof.StopCPUProfile()
			//lint:ignore errcheck a truncated CPU profile is diagnostic-only, never data loss
			f.Close()
			if prevAfter != nil {
				prevAfter()
			}
		}
	}
	if memDir != "" {
		path := filepath.Join(memDir, stem+".mem.pprof")
		prevAfter := opt.AfterTimed
		opt.AfterTimed = func() {
			if prevAfter != nil {
				prevAfter()
			}
			f, err := os.Create(path)
			if err != nil {
				return
			}
			runtime.GC() // settle the heap so the profile shows live objects
			//lint:ignore errcheck a failed heap profile is diagnostic-only
			pprof.WriteHeapProfile(f)
			//lint:ignore errcheck see above
			f.Close()
		}
	}
	return nil
}

// printf and printlnf write best-effort diagnostics to the injected
// stream; the process exit code is the command's real output channel.
func printf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func printlnf(w io.Writer, args ...any) {
	_, _ = fmt.Fprintln(w, args...)
}

// metricsLine renders a scenario's headline metrics compactly.
func metricsLine(m map[string]float64) string {
	if len(m) == 0 {
		return ""
	}
	keys := bench.Metrics(m).Keys()
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%.4g", k, m[k]))
	}
	return strings.Join(parts, " ")
}
