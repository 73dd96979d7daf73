package main

import (
	"errors"
	"flag"
	"io"
	"testing"
)

// -h is a request for the usage, not an error: run returns flag.ErrHelp,
// which main turns into exit status 0.
func TestHelpFlag(t *testing.T) {
	if err := run([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h = %v, want flag.ErrHelp", err)
	}
}
