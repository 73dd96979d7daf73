package main

import (
	"bytes"
	"testing"
)

// TestBadInvocations exits non-zero without printing a result.
func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "no-such-workload"},
		{"-workload", "testbed-steady", "-trace", "2"},
		{"-workload", "testbed-steady", "-seconds", "-1"},
		{"-workload", "testbed-steady", "extra"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := mainErr(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q; want a non-zero exit and no result", args, code, stdout.String())
		}
	}
}
