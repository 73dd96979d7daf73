// Command experiments reproduces the paper's entire evaluation in one
// invocation and writes a results directory: one CSV per figure plus a
// summary.md with the headline comparisons. This is the "reproduce
// everything" entry point referenced by EXPERIMENTS.md.
//
//	experiments -out results/           # full scale (~1 min)
//	experiments -out results/ -quick    # reduced scale (~15 s)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"vdcpower/internal/dcsim"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/report"
	"vdcpower/internal/testbed"
	"vdcpower/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	// -h prints the usage and exits 0, as flag.ExitOnError would.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		out   = fs.String("out", "results", "output directory")
		quick = fs.Bool("quick", false, "reduced scale for a fast smoke run")
		seed  = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	// Progress lines are best-effort, as printing to stdout is.
	printf := func(format string, a ...any) { _, _ = fmt.Fprintf(stdout, format, a...) }
	start := time.Now()
	summary := report.New("vdcpower experiment summary", "experiment", "headline result")

	cfg := testbed.DefaultConfig()
	cfg.Seed = *seed
	sizes := []int{30, 230, 1030, 2030, 3030, 4030, 5415}
	traceVMs, traceDays := 5415, 7
	concLevels := []int{30, 40, 50, 60, 70, 80}
	setpoints := []float64{0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3}
	if *quick {
		cfg.NumApps, cfg.NumServers = 4, 2
		sizes = []int{30, 230, 1030}
		traceVMs, traceDays = 1030, 2
		concLevels = []int{30, 50, 80}
		setpoints = []float64{0.6, 1.0, 1.3}
	}

	writeCSV := func(name string, t *report.Table) error {
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = t.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		printf("  wrote %s\n", path)
		return nil
	}

	// --- Figure 2 ---
	printf("figure 2: response time of all applications...\n")
	rows2, err := testbed.Fig2(cfg)
	if err != nil {
		return err
	}
	t2 := report.New("", "app", "mean_ms", "std_ms")
	worst := 0.0
	for _, r := range rows2 {
		t2.AddRow(r.Label, fmt.Sprintf("%.0f", r.Mean*1000), fmt.Sprintf("%.0f", r.Std*1000))
		if d := math.Abs(r.Mean - cfg.Setpoint); d > worst {
			worst = d
		}
	}
	if err := writeCSV("fig2_response_times.csv", t2); err != nil {
		return err
	}
	summary.AddRow("Fig 2", fmt.Sprintf("all %d apps within %.0f ms of the 1000 ms set point", len(rows2), worst*1000))

	// --- Figure 3 (controlled + static baseline) ---
	printf("figure 3: workload surge (controlled vs static)...\n")
	f3, err := testbed.Fig3(cfg)
	if err != nil {
		return err
	}
	f3s, err := testbed.Fig3Static(cfg)
	if err != nil {
		return err
	}
	t3 := report.New("", "time_s", "controlled_ms", "static_ms", "power_W")
	for i := range f3.ResponseTime {
		staticMS := ""
		if i < len(f3s.ResponseTime) {
			staticMS = fmt.Sprintf("%.0f", f3s.ResponseTime[i].Value*1000)
		}
		t3.AddRow(
			fmt.Sprintf("%.0f", f3.ResponseTime[i].Time),
			fmt.Sprintf("%.0f", f3.ResponseTime[i].Value*1000),
			staticMS,
			fmt.Sprintf("%.1f", f3.Power[i].Value))
	}
	if err := writeCSV("fig3_surge.csv", t3); err != nil {
		return err
	}
	summary.AddRow("Fig 3", fmt.Sprintf("surge violation rate: controlled %.0f%%, static %.0f%%",
		100*f3.LateViolationRate(cfg.Setpoint), 100*f3s.LateViolationRate(cfg.Setpoint)))

	// --- Figure 4 ---
	printf("figure 4: concurrency sweep...\n")
	rows4, err := testbed.Fig4(cfg, concLevels)
	if err != nil {
		return err
	}
	t4 := report.New("", "workload", "mean_ms", "std_ms")
	for _, r := range rows4 {
		t4.AddRow(r.Label, fmt.Sprintf("%.0f", r.Mean*1000), fmt.Sprintf("%.0f", r.Std*1000))
	}
	if err := writeCSV("fig4_concurrency.csv", t4); err != nil {
		return err
	}
	summary.AddRow("Fig 4", fmt.Sprintf("set point held across %d concurrency levels", len(rows4)))

	// --- Figure 5 ---
	printf("figure 5: set point sweep...\n")
	rows5, err := testbed.Fig5(cfg, setpoints)
	if err != nil {
		return err
	}
	t5 := report.New("", "set_point", "mean_ms", "std_ms")
	for _, r := range rows5 {
		t5.AddRow(r.Label, fmt.Sprintf("%.0f", r.Mean*1000), fmt.Sprintf("%.0f", r.Std*1000))
	}
	if err := writeCSV("fig5_setpoints.csv", t5); err != nil {
		return err
	}
	summary.AddRow("Fig 5", fmt.Sprintf("tracking across %d set points (600–1300 ms)", len(rows5)))

	// --- Figure 6 ---
	printf("figure 6: energy per VM, %d VMs × %d days...\n", traceVMs, traceDays)
	tr, err := workload.Generate(workload.GenConfig{NumVMs: traceVMs, Days: traceDays, StepsPerHour: 4, Seed: 2008})
	if err != nil {
		return err
	}
	points, err := dcsim.Fig6Sweep(tr, sizes, []func() optimizer.Consolidator{
		func() optimizer.Consolidator { return optimizer.NewIPAC() },
		func() optimizer.Consolidator { return optimizer.NewPMapper() },
		func() optimizer.Consolidator { return optimizer.WithoutDVFS{Inner: optimizer.NewIPAC()} },
	}, dcsim.SweepOptions{})
	if err != nil {
		return err
	}
	t6 := report.New("", "vms", "ipac_wh", "pmapper_wh", "ipac_nodvfs_wh", "saving_pct")
	meanSaving := 0.0
	for _, p := range points {
		s := 1 - p.PerVMWh["IPAC"]/p.PerVMWh["pMapper"]
		meanSaving += s
		t6.AddRow(p.NumVMs,
			fmt.Sprintf("%.1f", p.PerVMWh["IPAC"]),
			fmt.Sprintf("%.1f", p.PerVMWh["pMapper"]),
			fmt.Sprintf("%.1f", p.PerVMWh["IPAC-noDVFS"]),
			fmt.Sprintf("%.1f", 100*s))
	}
	meanSaving /= float64(len(points))
	if err := writeCSV("fig6_energy_per_vm.csv", t6); err != nil {
		return err
	}
	summary.AddRow("Fig 6", fmt.Sprintf("IPAC saves %.1f%% vs pMapper on average (paper: 40.7%%)", 100*meanSaving))

	// --- summary ---
	sf, err := os.Create(filepath.Join(*out, "summary.md"))
	if err != nil {
		return err
	}
	err = summary.WriteMarkdown(sf)
	if cerr := sf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	printf("  wrote %s\n", filepath.Join(*out, "summary.md"))
	printf("\ndone in %s\n", time.Since(start).Round(time.Second))
	return summary.WriteText(stdout)
}
