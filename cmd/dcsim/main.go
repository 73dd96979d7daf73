// Command dcsim runs the large-scale data-center simulation of Section
// VI-B / VII-B and prints the Figure 6 comparison: energy per VM over the
// trace horizon for IPAC and pMapper (and optional ablations) across
// data-center sizes. Runs fan out over a worker pool.
//
// Usage:
//
//	dcsim -sizes 30,430,1030,2030,3030,4030,5415 -days 7
//	dcsim -workload trace.gob -sizes 1030 -ablations -format csv
//	dcsim -trace out.json -sizes 230        # Chrome-trace span recording
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"encoding/json"

	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/dcsim"
	"vdcpower/internal/fault"
	"vdcpower/internal/obs"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/probe"
	"vdcpower/internal/report"
	"vdcpower/internal/telemetry"
	"vdcpower/internal/trace"
	"vdcpower/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dcsim: ")
	// -h prints the usage and exits 0, as flag.ExitOnError would.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// printf writes one best-effort line to stdout, as fmt.Printf does.
func printf(stdout io.Writer, format string, a ...any) { _, _ = fmt.Fprintf(stdout, format, a...) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dcsim", flag.ContinueOnError)
	var (
		workloadP = fs.String("workload", "", "workload trace file (.gob or .csv); generated if empty")
		replayP   = fs.String("replay", "", "replay spec JSON (see internal/trace.ReplaySpec): build the workload by deterministically replaying a real-trace corpus, with any distortions the spec lists")
		traceOut  = fs.String("trace", "", "write a Chrome-trace JSON recording of the run's spans to this file (the workload input flag is -workload)")
		sizesStr  = fs.String("sizes", "30,230,1030,2030,3030,4030,5415", "comma-separated data-center sizes (number of VMs)")
		days      = fs.Int("days", 7, "days to generate when no trace file is given")
		vms       = fs.Int("vms", 5415, "VMs to generate when no trace file is given")
		seed      = fs.Int64("seed", 2008, "generator seed")
		ablations = fs.Bool("ablations", false, "also run IPAC-noDVFS and static+DVFS")
		workers   = fs.Int("workers", 0, "parallel runs (0 = GOMAXPROCS)")
		format    = fs.String("format", "text", "output format: text, csv, or markdown")
		series    = fs.Int("series", 0, "instead of the sweep, dump a per-step power/active/demand series for a run with this many VMs")
		snapshot  = fs.String("snapshot", "", "with -series: write the final data-center state as JSON to this file")
		checkRun  = fs.Bool("check", false, "run a Fig. 6 subset with every runtime invariant enabled and report violations")
		faultsP   = fs.String("faults", "", "fault-injection profile JSON (see internal/fault); every run gets its own deterministic injector; the serve and guard classes only fire in the period-driven harnesses (cmd/serve)")
		reportP   = fs.String("report", "", "with -check: also write a machine-readable JSON verification report to this file")
		obsOut    = fs.String("obs", "", "write a controller-health scorecard (schema vdcobs/v1) aggregated across all runs as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The aggregate scorecard, when requested. Every run observes into
	// its own per-run scorecard with the same SLO geometry; the runs
	// merge here in fixed order, so the document is deterministic for a
	// fixed seed regardless of worker scheduling.
	var scorecard *obs.Scorecard
	if *obsOut != "" {
		scorecard = obs.New(obs.Config{
			Label:      "dcsim",
			SLOBudget:  0.05, // 5% of steps may see an active-server overload
			FastWindow: 8,    // 2 simulated hours at 4 steps/hour
			SlowWindow: 64,   // 16 simulated hours
		})
	}

	var prof *fault.Profile
	if *faultsP != "" {
		p, err := fault.LoadProfile(*faultsP)
		if err != nil {
			return err
		}
		prof = &p
	}

	if *traceOut != "" {
		if err := validateTraceOut(*traceOut); err != nil {
			return err
		}
	}

	if *checkRun {
		// Verification mode defaults to a small subset unless sizes/days
		// were given explicitly.
		explicit := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["sizes"] {
			*sizesStr = "30,230"
		}
		if !explicit["days"] {
			*days = 2
		}
		if !explicit["vms"] {
			*vms = 300
		}
	}

	var sizes []int
	for _, s := range strings.Split(*sizesStr, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("bad size %q: %w", s, err)
		}
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)

	var (
		tr   *workload.Trace
		prov *trace.Provenance
		err  error
	)
	if *replayP != "" {
		if *workloadP != "" {
			return errors.New("-replay and -workload are mutually exclusive")
		}
		sp, err := trace.LoadSpec(*replayP)
		if err != nil {
			return err
		}
		if tr, prov, err = sp.Build(); err != nil {
			return err
		}
		scorecard.SetProvenance(prov)
		printf(stdout, "replayed %s: %d records, %d distorted\n", prov.Source, prov.Records, prov.Distorted)
	} else if tr, err = loadOrGenerate(*workloadP, *vms, *days, *seed, stdout); err != nil {
		return err
	}
	printf(stdout, "trace: %d VMs × %d steps (%.0f s/step), peak/mean load %.2f\n\n",
		tr.NumVMs(), tr.NumSteps(), tr.StepSeconds, tr.PeakToMean())

	// The span recorder, when requested. Runs drive tracks on logical
	// sim time (dcsim.Run calls SetTime each step), so no clock is
	// injected here.
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.New(nil, 0)
	}

	if *checkRun {
		if err := runChecked(tr, sizes, tracer, prof, *reportP, scorecard, prov, stdout); err != nil {
			return err
		}
		if err := writeTrace(tracer, *traceOut); err != nil {
			return err
		}
		return writeScorecard(scorecard, *obsOut)
	}

	if *series > 0 {
		t := report.New("per-step series (IPAC)", "step", "hour", "power_W", "active_servers", "demand_GHz")
		cfg := dcsim.DefaultConfig(tr, *series, optimizer.NewIPAC())
		cfg.Telemetry = tracer.Track("main")
		if scorecard != nil {
			cfg.Probe = probe.New(scorecard)
		}
		if prof != nil {
			cfg.Faults = fault.New(*prof)
		}
		cfg.OnStep = func(k int, powerW float64, active int, demand float64) {
			t.AddRow(k, fmt.Sprintf("%.2f", float64(k)*tr.StepSeconds/3600),
				fmt.Sprintf("%.1f", powerW), active, fmt.Sprintf("%.1f", demand))
		}
		var snapErr error
		if *snapshot != "" {
			cfg.OnDone = func(dc *cluster.DataCenter) { snapErr = writeSnapshot(dc, *snapshot) }
		}
		if _, err := dcsim.Run(cfg); err != nil {
			return err
		}
		if snapErr != nil {
			return snapErr
		}
		if err := t.Format(stdout, *format); err != nil {
			return err
		}
		if err := writeTrace(tracer, *traceOut); err != nil {
			return err
		}
		return writeScorecard(scorecard, *obsOut)
	}

	policies := []func() optimizer.Consolidator{
		func() optimizer.Consolidator { return optimizer.NewIPAC() },
		func() optimizer.Consolidator { return optimizer.NewPMapper() },
	}
	if *ablations {
		policies = append(policies,
			func() optimizer.Consolidator { return optimizer.WithoutDVFS{Inner: optimizer.NewIPAC()} },
			func() optimizer.Consolidator { return optimizer.NoOp{DVFS: true} },
		)
	}
	var names []string
	for _, mk := range policies {
		names = append(names, mk().Name())
	}

	points, err := dcsim.Fig6Sweep(tr, sizes, policies, dcsim.SweepOptions{Workers: *workers, Tracer: tracer, FaultProfile: prof, Obs: scorecard})
	if err != nil {
		return err
	}
	if err := writeTrace(tracer, *traceOut); err != nil {
		return err
	}
	if err := writeScorecard(scorecard, *obsOut); err != nil {
		return err
	}

	headers := append([]string{"VMs"}, names...)
	headers = append(headers, "IPAC_saving_pct")
	t := report.New("Figure 6: energy per VM (Wh) over the trace horizon", headers...)
	var savings []float64
	for _, p := range points {
		row := []any{p.NumVMs}
		for _, n := range names {
			row = append(row, fmt.Sprintf("%.1f", p.PerVMWh[n]))
		}
		s := 1 - p.PerVMWh["IPAC"]/p.PerVMWh["pMapper"]
		savings = append(savings, s)
		row = append(row, fmt.Sprintf("%.1f", 100*s))
		t.AddRow(row...)
	}
	if err := t.Format(stdout, *format); err != nil {
		return err
	}
	mean := 0.0
	for _, s := range savings {
		mean += s
	}
	mean /= float64(len(savings))
	printf(stdout, "\naverage IPAC saving vs pMapper: %.1f%% (paper reports 40.7%%)\n", mean*100)
	return nil
}

// writeSnapshot dumps the final data-center state of a -series run as
// JSON.
func writeSnapshot(dc *cluster.DataCenter, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = dc.Snapshot().WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote final state to %s\n", path)
	return nil
}

// checkReport is the machine-readable verdict of a -check run (-report):
// CI jobs assert on violations and, under a fault profile, on a nonzero
// injected-fault count.
type checkReport struct {
	Invariants     int               `json:"invariants"`
	Violations     int               `json:"violations"`
	FaultsInjected int               `json:"faults_injected"`
	Replay         *trace.Provenance `json:"replay,omitempty"`
	Runs           []checkRunReport  `json:"runs"`
}

type checkRunReport struct {
	Policy         string  `json:"policy"`
	VMs            int     `json:"vms"`
	Events         int     `json:"events"`
	Violations     int     `json:"violations"`
	FaultsInjected int     `json:"faults_injected"`
	DegradedPasses int     `json:"degraded_passes"`
	Crashes        int     `json:"crashes"`
	EnergyPerVMWh  float64 `json:"energy_per_vm_wh"`
}

// runChecked reruns the Figure 6 comparison serially with the full
// invariant registry observing every run: cluster conservation laws,
// optimizer guarantees (with a cost-policy audit wired into each
// consolidator), energy accounting, and the fault-degradation laws. Each
// run gets its own injector built from prof (nil injects nothing), so
// chaos verification is reproducible run by run. Any violation is a fatal
// error; reportPath, when nonempty, additionally receives the JSON
// verdict.
func runChecked(tr *workload.Trace, sizes []int, tracer *telemetry.Tracer, prof *fault.Profile, reportPath string, scorecard *obs.Scorecard, prov *trace.Provenance, stdout io.Writer) error {
	type checkedPolicy struct {
		name string
		mk   func() (optimizer.Consolidator, *check.PolicyAuditor)
	}
	policies := []checkedPolicy{
		{"IPAC", func() (optimizer.Consolidator, *check.PolicyAuditor) {
			o := optimizer.NewIPAC()
			aud := check.NewPolicyAuditor(o.Policy)
			o.Policy = aud
			return o, aud
		}},
		{"pMapper", func() (optimizer.Consolidator, *check.PolicyAuditor) {
			p := optimizer.NewPMapper()
			aud := check.NewPolicyAuditor(p.Policy)
			p.Policy = aud
			return p, aud
		}},
	}
	doc := checkReport{Invariants: len(check.All()) + 1, Replay: prov}
	for _, n := range sizes {
		for _, pol := range policies {
			cons, aud := pol.mk()
			checker := check.New(append(check.All(), check.VetoesRespected(aud))...)
			cfg := dcsim.DefaultConfig(tr, n, cons)
			cfg.WatchdogEverySteps = 4 // exercise the overload reliever too
			if prof != nil {
				cfg.Faults = fault.New(*prof)
			}
			// One track per run: tracks are sequential execution units,
			// and the checked sweep runs serially.
			cfg.Telemetry = tracer.Track(fmt.Sprintf("%s-%d", pol.name, n))
			subs := []probe.Subscriber{checker}
			var sc *obs.Scorecard
			if scorecard != nil {
				jc := scorecard.Config()
				jc.Label = fmt.Sprintf("%s/%d", pol.name, n)
				sc = obs.New(jc)
				subs = append(subs, sc)
			}
			cfg.Probe = probe.New(subs...)
			res, err := dcsim.Run(cfg)
			if err != nil && checker.NumViolations() == 0 {
				return err
			}
			if scorecard != nil {
				if err := scorecard.Merge(sc); err != nil {
					return fmt.Errorf("merging %s/%d scorecard: %w", pol.name, n, err)
				}
			}
			status := "ok"
			if checker.NumViolations() > 0 {
				status = "VIOLATIONS"
			}
			printf(stdout, "%-8s n=%-5d events=%-6d invariants=%d violations=%d faults=%-4d %s (%.1f Wh/VM)\n",
				pol.name, n, checker.Events(), len(check.All())+1, checker.NumViolations(), res.FaultsInjected, status, res.EnergyPerVMWh)
			for _, v := range checker.Violations() {
				printf(stdout, "    %s\n", v)
			}
			doc.Violations += checker.NumViolations()
			doc.FaultsInjected += res.FaultsInjected
			doc.Runs = append(doc.Runs, checkRunReport{
				Policy:         pol.name,
				VMs:            n,
				Events:         checker.Events(),
				Violations:     checker.NumViolations(),
				FaultsInjected: res.FaultsInjected,
				DegradedPasses: res.DegradedPasses,
				Crashes:        res.Crashes,
				EnergyPerVMWh:  res.EnergyPerVMWh,
			})
		}
	}
	if reportPath != "" {
		if err := writeReport(doc, reportPath); err != nil {
			return err
		}
	}
	if doc.Violations > 0 {
		return fmt.Errorf("%d invariant violation(s)", doc.Violations)
	}
	printf(stdout, "\nall invariants held\n")
	return nil
}

// writeReport dumps the -check verdict as JSON.
func writeReport(doc checkReport, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		//lint:ignore errcheck the encode error is already being returned
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote verification report to %s\n", path)
	return nil
}

// writeScorecard dumps the aggregated controller-health scorecard as
// indented JSON; a nil scorecard (-obs not given) writes nothing.
func writeScorecard(sc *obs.Scorecard, path string) error {
	if sc == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sc.WriteJSON(f); err != nil {
		//lint:ignore errcheck the write error is already being returned
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rep := sc.Report()
	fmt.Fprintf(os.Stderr, "wrote controller-health scorecard to %s (SLO %s, %d/%d bad steps)\n",
		path, rep.SLO.Verdict, rep.SLO.Bad, rep.SLO.Good+rep.SLO.Bad)
	return nil
}

// validateTraceOut guards the historical meaning of -trace (it used to
// name the workload input, now -workload): before running anything, the
// recording destination must be absent, empty, or a previous trace
// recording (which always starts with the '[' of the JSON array form).
// Anything else — a .gob/.csv workload, say — is refused rather than
// silently overwritten.
func validateTraceOut(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	//lint:ignore errcheck close error on a read-only file cannot lose data
	defer f.Close()
	var first [1]byte
	n, err := f.Read(first[:])
	if n == 0 && err == io.EOF {
		return nil // empty file: nothing to lose
	}
	if err != nil && err != io.EOF {
		return err
	}
	if first[0] == '[' {
		return nil // prior trace recording: overwriting is expected
	}
	return fmt.Errorf("-trace output %s exists and is not a previous trace recording; "+
		"-trace writes a Chrome-trace JSON — pass a workload input via -workload, "+
		"or choose a different -trace path", path)
}

// writeTrace dumps the recorded spans as Chrome-trace JSON; a nil tracer
// (tracing not requested) writes nothing.
func writeTrace(tr *telemetry.Tracer, path string) error {
	if tr == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	recs := tr.Snapshot()
	if err := telemetry.WriteChromeTrace(f, recs); err != nil {
		//lint:ignore errcheck the write error is already being returned
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d span events (%d dropped) to %s\n", len(recs), tr.Dropped(), path)
	return nil
}

func loadOrGenerate(path string, vms, days int, seed int64, stdout io.Writer) (*workload.Trace, error) {
	if path == "" {
		printf(stdout, "generating synthetic trace (%d VMs, %d days, seed %d)...\n", vms, days, seed)
		return workload.Generate(workload.GenConfig{NumVMs: vms, Days: days, StepsPerHour: 4, Seed: seed})
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:ignore errcheck close error on a read-only file cannot lose data
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return workload.ReadCSV(f)
	}
	return workload.ReadGob(f)
}
