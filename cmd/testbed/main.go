// Command testbed runs the hardware-testbed experiments of Section VII-A
// on the simulated substrate and prints the series behind Figures 2–5.
//
// Usage:
//
//	testbed -fig 2               # response time of all 8 apps
//	testbed -fig 3               # workload-step run: controlled vs static
//	testbed -fig 4               # concurrency sweep 30..80
//	testbed -fig 5               # set point sweep 600..1300 ms
//	testbed -fig all -format csv # everything, machine-readable
//	testbed -trace out.json      # integrated traced run, Chrome-trace JSON
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"vdcpower/internal/cluster"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/report"
	"vdcpower/internal/telemetry"
	"vdcpower/internal/testbed"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("testbed: ")
	// -h prints the usage and exits 0, as flag.ExitOnError would.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("testbed", flag.ContinueOnError)
	var (
		fig    = fs.String("fig", "all", "which figure to regenerate: 2, 3, 4, 5, or all")
		apps   = fs.Int("apps", 8, "number of two-tier applications")
		srv    = fs.Int("servers", 4, "number of physical servers")
		conc   = fs.Int("concurrency", 40, "baseline concurrency level")
		seed   = fs.Int64("seed", 1, "random seed")
		format = fs.String("format", "text", "output format: text, csv, or markdown")
		trace  = fs.String("trace", "", "run the integrated two-level system and write a Chrome-trace JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := testbed.DefaultConfig()
	cfg.NumApps = *apps
	cfg.NumServers = *srv
	cfg.Concurrency = *conc
	cfg.Seed = *seed

	if *trace != "" {
		if err := tracedRun(cfg, *trace, stdout); err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		return nil
	}

	emit := func(t *report.Table) error {
		if err := t.Format(stdout, *format); err != nil {
			return err
		}
		_, err := fmt.Fprintln(stdout)
		return err
	}
	want := func(name string) bool { return *fig == "all" || *fig == name }

	if want("2") {
		rows, err := testbed.Fig2(cfg)
		if err != nil {
			return fmt.Errorf("figure 2: %w", err)
		}
		t := report.New("Figure 2: response time of all applications (set point 1000 ms)",
			"app", "mean_ms", "std_ms")
		for _, r := range rows {
			t.AddRow(r.Label, r.Mean*1000, r.Std*1000)
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("3") {
		controlled, err := testbed.Fig3(cfg)
		if err != nil {
			return fmt.Errorf("figure 3: %w", err)
		}
		static, err := testbed.Fig3Static(cfg)
		if err != nil {
			return fmt.Errorf("figure 3 baseline: %w", err)
		}
		t := report.New(
			fmt.Sprintf("Figure 3: %s under a workload step (concurrency %d→%d during 600–1200 s)",
				controlled.AppLabel, cfg.Concurrency, 2*cfg.Concurrency),
			"time_s", "controlled_resp_ms", "static_resp_ms", "controlled_power_W")
		for i := range controlled.ResponseTime {
			if i%5 != 0 { // decimate for readability
				continue
			}
			staticMS := ""
			if i < len(static.ResponseTime) {
				staticMS = fmt.Sprintf("%.0f", static.ResponseTime[i].Value*1000)
			}
			t.AddRow(
				fmt.Sprintf("%.0f", controlled.ResponseTime[i].Time),
				fmt.Sprintf("%.0f", controlled.ResponseTime[i].Value*1000),
				staticMS,
				fmt.Sprintf("%.1f", controlled.Power[i].Value),
			)
		}
		if err := emit(t); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(stdout, "surge-window violation rate (>1.5× set point, t∈[800,1200)): controlled %.0f%%, static %.0f%%\n\n",
			100*controlled.LateViolationRate(cfg.Setpoint), 100*static.LateViolationRate(cfg.Setpoint)); err != nil {
			return err
		}
	}
	if want("4") {
		rows, err := testbed.Fig4(cfg, []int{30, 40, 50, 60, 70, 80})
		if err != nil {
			return fmt.Errorf("figure 4: %w", err)
		}
		t := report.New("Figure 4: response time of App5 under different workloads",
			"workload", "mean_ms", "std_ms")
		for _, r := range rows {
			t.AddRow(r.Label, r.Mean*1000, r.Std*1000)
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("5") {
		rows, err := testbed.Fig5(cfg, []float64{0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3})
		if err != nil {
			return fmt.Errorf("figure 5: %w", err)
		}
		t := report.New("Figure 5: response time of App5 under different set points",
			"set_point", "mean_ms", "std_ms")
		for _, r := range rows {
			t.AddRow(r.Label, r.Mean*1000, r.Std*1000)
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	return nil
}

// tracedRun drives the full two-level system — MPC controllers, server
// arbitrators, and IPAC consolidation — with the span recorder attached,
// then writes the recording as Chrome-trace JSON. Spans run on the
// simulation clock, so repeated runs with one seed are byte-identical.
func tracedRun(cfg testbed.Config, path string, stdout io.Writer) error {
	tb, err := testbed.New(cfg)
	if err != nil {
		return err
	}
	if err := tb.AttachOptimizer(optimizer.NewIPAC(), 20, cluster.DefaultMigrationModel()); err != nil {
		return err
	}
	tr := tb.AttachTelemetry(0)
	if _, err := tb.Run(600, nil); err != nil {
		return err
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
	_, err = fmt.Fprintf(stdout, "wrote %d span events (%d dropped) to %s\n", len(recs), tr.Dropped(), path)
	return err
}
