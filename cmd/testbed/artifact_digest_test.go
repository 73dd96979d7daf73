package main

import (
	"bytes"
	"hash/fnv"
	"testing"
)

// TestArtifactDigests pins the FNV-64a digest of what
// `testbed -fig all -format csv` prints: every series behind Figures 2–5
// at seed 1, and Figure 3's surge-window violation rates. The digest was
// recorded from the built command before its flags moved onto a
// FlagSet. A change that moves a figure re-pins it in the same commit
// and says here what moved and why.
func TestArtifactDigests(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-fig", "all", "-format", "csv"}, &stdout); err != nil {
		t.Fatal(err)
	}
	if got, want := fnv64(stdout.Bytes()), uint64(0xfdd2d2bbf37051a5); got != want {
		t.Errorf("stdout digest = %#x, want %#x", got, want)
	}
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
