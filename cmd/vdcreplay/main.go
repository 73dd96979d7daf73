// Command vdcreplay drives the trace-replay subsystem: it fabricates
// schema-valid raw corpora in the public trace formats or this repo's
// synthetic workload trace, and it builds (or live-streams)
// deterministic, optionally distorted replays of them as workload traces
// the simulators consume. The workload formats write the synthetic
// workload.Generate trace that cmd/dcsim generates from the same -vms and
// -seed; their -steps must cover whole days of 96 15-minute steps.
//
// Usage:
//
//	vdcreplay -gen google-usage -vms 40 -steps 12 -out corpus.csv
//	vdcreplay -gen azure-vm -vms 40 -steps 12 -gzip -out corpus.csv.gz
//	vdcreplay -gen workload-gob -vms 5415 -steps 672 -seed 2008 -out t.gob
//	vdcreplay -spec replay.json -out trace.csv -provenance prov.json
//	vdcreplay -spec replay.json -pace            # stream records, paced
package main

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"vdcpower/internal/trace"
	"vdcpower/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vdcreplay: ")
	// -h prints the usage and exits 0, as flag.ExitOnError would.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vdcreplay", flag.ContinueOnError)
	var (
		specP   = fs.String("spec", "", "replay spec JSON (see internal/trace.ReplaySpec)")
		out     = fs.String("out", "", "output file; empty prints a summary (build) or streams to stdout (-pace)")
		provP   = fs.String("provenance", "", "write replay provenance JSON to this file")
		pace    = fs.Bool("pace", false, "stream records against the wall clock at the spec's speedup instead of building a trace")
		gen     = fs.String("gen", "", "fabricate a corpus in this format (google-usage, azure-vm, workload-csv or workload-gob) instead of replaying")
		vms     = fs.Int("vms", 40, "with -gen: number of VMs")
		steps   = fs.Int("steps", 12, "with -gen: 15-minute grid steps per VM (a multiple of 96 for the workload formats)")
		samples = fs.Int("samples", 3, "with -gen: raw rows per grid step")
		seed    = fs.Int64("seed", 1, "with -gen: fabrication seed")
		gapP    = fs.Float64("gap-prob", 0, "with -gen: per-(VM,step) probability of a dropped step")
		emptyP  = fs.Float64("empty-prob", 0, "with -gen: per-row probability of an empty utilization field")
		gz      = fs.Bool("gzip", false, "with -gen: gzip the corpus")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *gen != "":
		cfg := trace.FabConfig{VMs: *vms, Steps: *steps, SamplesPerStep: *samples,
			Seed: *seed, GapProb: *gapP, EmptyProb: *emptyP}
		return runGen(*gen, cfg, *gz, *out, stdout)
	case *specP != "":
		sp, err := trace.LoadSpec(*specP)
		if err != nil {
			return err
		}
		if *pace {
			return runPace(sp, *out, stdout)
		}
		return runBuild(sp, *out, *provP, stdout)
	}
	return fmt.Errorf("nothing to do: pass -spec or -gen (see -h)")
}

// runGen fabricates a corpus.
func runGen(format string, cfg trace.FabConfig, gz bool, out string, stdout io.Writer) error {
	write, err := generator(format, cfg)
	if err != nil {
		return err
	}
	var w io.Writer = stdout
	var f *os.File
	if out != "" {
		if f, err = os.Create(out); err != nil {
			return err
		}
		w = f
	}
	var zw *gzip.Writer
	if gz {
		zw = gzip.NewWriter(w)
		w = zw
	}
	rows, err := write(w)
	if err == nil && zw != nil {
		err = zw.Close()
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if out != "" {
		fmt.Printf("fabricated %d %s rows (%d VMs × %d steps) → %s\n", rows, format, cfg.VMs, cfg.Steps, out)
	}
	return nil
}

// stepsPerDay is one day of the 15-minute control grid.
const stepsPerDay = 96

// generator returns the writer of one -gen format and the number of rows
// it writes, checking the request before any file is created. The
// workload formats write one row per VM.
func generator(format string, cfg trace.FabConfig) (func(io.Writer) (int, error), error) {
	switch format {
	case trace.FormatGoogleUsage:
		return func(w io.Writer) (int, error) { return trace.WriteGoogleUsage(w, cfg) }, nil
	case trace.FormatAzureVM:
		return func(w io.Writer) (int, error) { return trace.WriteAzureVM(w, cfg) }, nil
	case trace.FormatWorkloadCSV, trace.FormatWorkloadGob:
		if cfg.Steps <= 0 || cfg.Steps%stepsPerDay != 0 {
			return nil, fmt.Errorf("-gen %s needs -steps to be a positive multiple of %d (whole days), got %d", format, stepsPerDay, cfg.Steps)
		}
		tr, err := workload.Generate(workload.GenConfig{NumVMs: cfg.VMs, Days: cfg.Steps / stepsPerDay, StepsPerHour: 4, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		write := tr.WriteGob
		if format == trace.FormatWorkloadCSV {
			write = tr.WriteCSV
		}
		return func(w io.Writer) (int, error) { return tr.NumVMs(), write(w) }, nil
	}
	return nil, fmt.Errorf("unknown -gen format %q (%s, %s, %s or %s)", format,
		trace.FormatGoogleUsage, trace.FormatAzureVM, trace.FormatWorkloadCSV, trace.FormatWorkloadGob)
}

// runBuild assembles the replayed trace and writes it plus provenance.
func runBuild(sp *trace.ReplaySpec, out, provP string, stdout io.Writer) error {
	tr, prov, err := sp.Build()
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "replayed %s: %d records → %d VMs × %d steps, %d distorted\n",
		prov.Source, prov.Records, tr.NumVMs(), tr.NumSteps(), prov.Distorted); err != nil {
		return err
	}
	for _, d := range prov.Distortions {
		if _, err := fmt.Fprintf(stdout, "  %-12s %-40s touched %d\n", d.Name, d.Params, d.Distorted); err != nil {
			return err
		}
	}
	if provP != "" {
		buf, err := json.MarshalIndent(prov, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(provP, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if strings.HasSuffix(out, ".gob") {
		err = tr.WriteGob(f)
	} else {
		err = tr.WriteCSV(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runPace streams the distorted record stream against the wall clock —
// the one code path that paces. Output is CSV: vm,time_s,util.
func runPace(sp *trace.ReplaySpec, out string, stdout io.Writer) error {
	st, closer, err := sp.Stream()
	if err != nil {
		return err
	}
	// The corpus is read-only; its close error carries no data loss.
	//lint:ignore errcheck read-side close
	defer closer.Close()
	var w io.Writer = stdout
	var f *os.File
	if out != "" {
		if f, err = os.Create(out); err != nil {
			return err
		}
		w = f
	}
	speedup := sp.Speedup
	if speedup <= 0 {
		speedup = 1
	}
	pacer := trace.NewPacer(speedup)
	simSeconds := 0.0
	for {
		var rec trace.Record
		if rec, err = st.Next(); err != nil {
			break
		}
		simSeconds = max(simSeconds, rec.Time)
		pacer.Wait(rec.Time)
		if _, err = fmt.Fprintf(w, "%s,%g,%.6f\n", rec.VM, rec.Time, rec.Util); err != nil {
			break
		}
	}
	if err == io.EOF {
		err = nil
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "vdcreplay: streamed %d records (%.0f sim-seconds at %gx)\n",
		st.Provenance().Records, simSeconds, speedup)
	return nil
}
