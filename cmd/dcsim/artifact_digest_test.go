package main

import (
	"bytes"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

// TestArtifactDigests pins the FNV-64a digests of three checked runs,
// each `dcsim -check ... -obs S -report R`: its stdout, the scorecard S
// and the verification report R. clean and smoke-faults run
// `-sizes 30 -days 1 -vms 60`, without and with
// testdata/faults/smoke.json; their digests were recorded from the built
// command before its flags moved onto a FlagSet. replay runs
// `-sizes 12 -replay testdata/replay/google.json`, so S and R carry the
// replay's provenance (384 records, 24 distorted); its digests were
// recorded before the replay path became pull-only. smoke-faults' stdout
// and report were re-pinned when pMapper joined the fault plane: its run
// now draws migration aborts too, 17 faults instead of 2, and reports 30
// more migration-transition events. Every aborted move commits on a
// retry and no pMapper pass draws an error, so its energy and the
// scorecard hold. The lines that name S and R go to stderr and are not
// pinned. A change that moves a digest re-pins it in the same commit and
// says here what moved and why.
func TestArtifactDigests(t *testing.T) {
	for _, c := range []struct {
		name                    string
		args                    []string
		stdout, scorecard, repo uint64
	}{
		{"clean", []string{"-sizes", "30", "-days", "1", "-vms", "60"}, 0xc49b28ea81f18f68, 0x31ad942aa4e7886f, 0xa9ceb26b3e063e7c},
		{"smoke-faults", []string{"-sizes", "30", "-days", "1", "-vms", "60", "-faults", "../../testdata/faults/smoke.json"}, 0x03a8486c5045faef, 0x0286b4786b5130e4, 0xb7073af887124ae7},
		{"replay", []string{"-sizes", "12", "-replay", "../../testdata/replay/google.json"}, 0xf18578bfdae34f13, 0xe7038b0dbcf7728a, 0xfbec478e367a667c},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			sc, rep := filepath.Join(dir, "S"), filepath.Join(dir, "R")
			args := append(append([]string{"-check"}, c.args...), "-obs", sc, "-report", rep)
			var stdout bytes.Buffer
			if err := run(args, &stdout); err != nil {
				t.Fatal(err)
			}
			for _, d := range []struct {
				what string
				got  []byte
				want uint64
			}{
				{"stdout", stdout.Bytes(), c.stdout},
				{"scorecard", readFile(t, sc), c.scorecard},
				{"report", readFile(t, rep), c.repo},
			} {
				if got := fnv64(d.got); got != d.want {
					t.Errorf("%s digest = %#x, want %#x", d.what, got, d.want)
				}
			}
		})
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
