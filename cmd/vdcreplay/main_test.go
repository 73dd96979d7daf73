package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vdcpower/internal/workload"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func read(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGenBuildRoundTripIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.csv")
	if err := run([]string{"-gen", "google-usage", "-vms", "8", "-steps", "6", "-seed", "3",
		"-gap-prob", "0.05", "-out", corpus}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join(dir, "spec.json")
	write(t, spec, `{"format":"google-usage","path":"corpus.csv","seed":7,
		"distortions":[{"kind":"flash-crowd","start_step":1,"steps":3,"amplify":1.5,"vm_fraction":0.5}]}`)

	build := func(stem string) ([]byte, []byte) {
		out := filepath.Join(dir, stem+".csv")
		prov := filepath.Join(dir, stem+".prov.json")
		var stdout bytes.Buffer
		if err := run([]string{"-spec", spec, "-out", out, "-provenance", prov}, &stdout); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(stdout.String(), "flash-crowd") {
			t.Fatalf("build summary lacks distortion provenance:\n%s", stdout.String())
		}
		return read(t, out), read(t, prov)
	}
	traceA, provA := build("a")
	traceB, provB := build("b")
	if !bytes.Equal(traceA, traceB) {
		t.Fatal("same spec built different trace bytes")
	}
	if !bytes.Equal(provA, provB) {
		t.Fatal("same spec built different provenance bytes")
	}
	if !strings.Contains(string(provA), `"distorted"`) {
		t.Fatalf("provenance JSON lacks a distorted count:\n%s", provA)
	}
}

func TestGenGzipCorpusBuilds(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.csv.gz")
	if err := run([]string{"-gen", "azure-vm", "-vms", "5", "-steps", "4", "-gzip", "-out", corpus}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if b := read(t, corpus); len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatal("-gzip corpus lacks the gzip magic")
	}
	spec := filepath.Join(dir, "spec.json")
	write(t, spec, `{"format":"azure-vm","path":"corpus.csv.gz","seed":1}`)
	out := filepath.Join(dir, "trace.csv")
	if err := run([]string{"-spec", spec, "-out", out}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if len(read(t, out)) == 0 {
		t.Fatal("built trace is empty")
	}
}

func TestPaceStreamsAllRecords(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.csv")
	if err := run([]string{"-gen", "google-usage", "-vms", "4", "-steps", "3", "-out", corpus}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join(dir, "spec.json")
	write(t, spec, `{"format":"google-usage","path":"corpus.csv","seed":1,"speedup":1000000}`)
	out := filepath.Join(dir, "stream.csv")
	if err := run([]string{"-spec", spec, "-pace", "-out", out}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(read(t, out))), "\n")
	if len(lines) != 4*3 {
		t.Fatalf("streamed %d records, want %d", len(lines), 4*3)
	}
	for _, l := range lines {
		if parts := strings.Split(l, ","); len(parts) != 3 {
			t.Fatalf("malformed stream line %q", l)
		}
	}
}

func TestRunErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"no mode":      {},
		"bad gen":      {"-gen", "csv"},
		"missing spec": {"-spec", filepath.Join(t.TempDir(), "nope.json")},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("%s: no error", name)
		}
	}
}

// The workload formats write workload.Generate's trace, one day per 96
// steps, in the encoding its own writers produce.
func TestGenWorkloadFormats(t *testing.T) {
	dir := t.TempDir()
	want, err := workload.Generate(workload.GenConfig{NumVMs: 7, Days: 2, StepsPerHour: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for format, encode := range map[string]func(io.Writer) error{
		"workload-csv": want.WriteCSV,
		"workload-gob": want.WriteGob,
	} {
		out := filepath.Join(dir, format)
		if err := run([]string{"-gen", format, "-vms", "7", "-steps", "192", "-seed", "5", "-out", out}, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := encode(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(read(t, out), buf.Bytes()) {
			t.Fatalf("-gen %s differs from workload.Generate's own encoding", format)
		}
	}
}

func TestGenWorkloadRejectsPartialDays(t *testing.T) {
	for _, steps := range []string{"0", "-96", "12", "100"} {
		out := filepath.Join(t.TempDir(), "t.gob")
		if err := run([]string{"-gen", "workload-gob", "-steps", steps, "-out", out}, &bytes.Buffer{}); err == nil {
			t.Fatalf("-steps %s accepted", steps)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("-steps %s left %s behind", steps, out)
		}
	}
}

// -h is a request for the usage, not an error: run returns flag.ErrHelp,
// which main turns into exit status 0.
func TestHelpFlag(t *testing.T) {
	if err := run([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h = %v, want flag.ErrHelp", err)
	}
}
