package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vdcpower/internal/testbed"
)

// The command prints the model the figures' testbed identifies at the
// same seed: seed 1 is the figures' own, seed 161 identifies a web tier
// with a non-negative static gain.
func TestPrintsTheTestbedModel(t *testing.T) {
	for _, seed := range []int64{1, 161} {
		cfg := testbed.DefaultConfig()
		cfg.Seed = seed
		tb, err := testbed.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(t.TempDir(), "model.json")
		var stdout bytes.Buffer
		if err := run([]string{"-seed", strconv.FormatInt(seed, 10), "-out", out}, &stdout); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(stdout.String(), "\n  "+tb.Model.String()+"\n") {
			t.Fatalf("seed %d: output lacks the testbed's model %s:\n%s", seed, tb.Model, stdout.String())
		}
		var want bytes.Buffer
		if err := tb.Model.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("seed %d: -out wrote\n%s\nwant\n%s", seed, got, want.Bytes())
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
