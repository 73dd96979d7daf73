// Command sysident runs the system identification experiment of Section
// IV-B exactly as the testbed does before every figure: it builds a
// one-application, one-server testbed, excites the CPU allocations
// pseudo-randomly, records the 90-percentile response time each control
// period, fits the ARX(1,2) model of Eq. (1), and reports the model with
// its fit quality. The defaults are testbed.DefaultConfig's: 100 periods
// of 4 s, each tier drawn from the middle 70% of [0.1, 2.5] GHz. The
// applications of a testbed are independent, so for a given -seed it
// prints the model testbed.New identifies for the eight-application
// testbed of the figures (seed 1).
//
// Usage:
//
//	sysident -concurrency 40 -periods 100 -seed 1
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"vdcpower/internal/testbed"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sysident: ")
	// -h prints the usage and exits 0, as flag.ExitOnError would.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sysident", flag.ContinueOnError)
	cfg := testbed.DefaultConfig()
	fs.IntVar(&cfg.Concurrency, "concurrency", cfg.Concurrency, "client concurrency level (ab -c)")
	fs.IntVar(&cfg.IdentPeriods, "periods", cfg.IdentPeriods, "identification length in control periods")
	fs.Float64Var(&cfg.Period, "period", cfg.Period, "control period T in seconds")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.Float64Var(&cfg.CMin, "cmin", cfg.CMin, "minimum allocation (GHz); excitation covers the middle 70% of [cmin, cmax]")
	fs.Float64Var(&cfg.CMax, "cmax", cfg.CMax, "maximum allocation (GHz)")
	out := fs.String("out", "", "write the identified model as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.NumApps, cfg.NumServers = 1, 1
	tb, err := testbed.New(cfg)
	if err != nil {
		return err
	}
	model, fit := tb.Model, tb.Fit

	var b strings.Builder
	fmt.Fprintf(&b, "excited %d tiers over the middle 70%% of [%.2f, %.2f] GHz for %d periods of %.1fs\n",
		model.NumInputs, cfg.CMin, cfg.CMax, cfg.IdentPeriods, cfg.Period)
	fmt.Fprintln(&b, "\nidentified model (Eq. 1 form):")
	fmt.Fprintf(&b, "  %s\n", model)
	fmt.Fprintf(&b, "\nfit: R²=%.3f fit%%=%.1f RMSE=%.3fs\n", fit.R2, fit.FitPct, fit.RMSE)
	fmt.Fprintf(&b, "stable (Σ|a|<1): %v\n", model.Stable())
	for i := 0; i < model.NumInputs; i++ {
		fmt.Fprintf(&b, "DC gain of tier %d allocation: %.3f s per GHz\n", i+1, model.DCGain(i))
	}
	if _, err := io.WriteString(stdout, b.String()); err != nil {
		return err
	}
	if !model.Stable() {
		return errors.New("identified model is unstable; increase -periods or widen excitation")
	}
	if *out == "" {
		return nil
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	err = model.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "\nwrote model to %s\n", *out)
	return err
}
