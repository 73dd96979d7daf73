package main

import (
	"bytes"
	"hash/fnv"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// unpinned matches the stdout lines that depend on where and when the
// command ran, not on what it computed: the "  wrote <out>/<file>" lines
// name the -out directory, and "done in" reports wall-clock time. The
// digest covers stdout with those lines dropped; the files they name are
// pinned one by one.
var unpinned = regexp.MustCompile(`(?m)^(  wrote |done in ).*\n`)

// TestArtifactDigests pins the FNV-64a digests of `experiments -quick`:
// its stdout and each file it writes. The digests were recorded from the
// built command before its flags moved onto a FlagSet. A change that
// moves one re-pins it in the same commit and says here what moved and
// why.
func TestArtifactDigests(t *testing.T) {
	out := t.TempDir()
	var stdout bytes.Buffer
	if err := run([]string{"-quick", "-out", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"fig2_response_times.csv": 0x32ef015c72d9b7e1,
		"fig3_surge.csv":          0x2ec9a42f726de74e,
		"fig4_concurrency.csv":    0xd9fa367e14696ab3,
		"fig5_setpoints.csv":      0x5457089ee0da16b4,
		"fig6_energy_per_vm.csv":  0x4e105c0f1bd0f5c3,
		"summary.md":              0xe68ad32db4ea8225,
	}
	if got, want := fnv64(unpinned.ReplaceAll(stdout.Bytes(), nil)), uint64(0xd955cb988003753d); got != want {
		t.Errorf("stdout digest = %#x, want %#x", got, want)
	}
	files, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Errorf("wrote %d files, want %d", len(files), len(want))
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(out, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := want[f.Name()]; !ok {
			t.Errorf("unexpected file %s", f.Name())
		} else if d := fnv64(b); d != got {
			t.Errorf("%s digest = %#x, want %#x", f.Name(), d, got)
		}
	}
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
