package main

import (
	"errors"
	"flag"
	"strings"
	"testing"
)

// A non-positive -tick would reach time.NewTicker, which panics in the
// loop goroutine after identification; it is refused at flag parse,
// before the testbed is built.
func TestRejectsNonPositiveTick(t *testing.T) {
	for _, tick := range []string{"0", "-250ms"} {
		err := run([]string{"-tick", tick})
		if err == nil || !strings.Contains(err.Error(), "-tick") {
			t.Errorf("-tick %s: err = %v, want a -tick error", tick, err)
		}
	}
}

// -h is a request for the usage, not an error: run returns flag.ErrHelp,
// which main turns into exit status 0.
func TestHelpFlag(t *testing.T) {
	if err := run([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h = %v, want flag.ErrHelp", err)
	}
}
