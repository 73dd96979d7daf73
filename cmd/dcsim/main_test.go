package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestValidateTraceOut covers the -trace overwrite guard: absent,
// empty, and prior-trace files are fine to (re)write; anything else —
// like a workload file from the days when -trace named the input — is
// refused instead of clobbered.
func TestValidateTraceOut(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	if err := validateTraceOut(filepath.Join(dir, "absent.json")); err != nil {
		t.Errorf("absent file refused: %v", err)
	}
	if err := validateTraceOut(write("empty.json", "")); err != nil {
		t.Errorf("empty file refused: %v", err)
	}
	if err := validateTraceOut(write("prior.json", "[\n{\"name\":\"thread_name\"}\n]\n")); err != nil {
		t.Errorf("prior trace recording refused: %v", err)
	}
	if err := validateTraceOut(write("workload.gob", "\x1f\x8b\x00binary workload")); err == nil {
		t.Error("non-trace file accepted for overwrite")
	}
}

// -h is a request for the usage, not an error: run returns flag.ErrHelp,
// which main turns into exit status 0.
func TestHelpFlag(t *testing.T) {
	if err := run([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h = %v, want flag.ErrHelp", err)
	}
}
