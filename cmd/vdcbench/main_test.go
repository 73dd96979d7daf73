package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vdcpower/internal/bench"
)

// repoRoot locates the module root so the lint scenario and relative
// file paths behave as they would when vdcbench runs from the checkout.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

func TestListMode(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, name := range []string{"fig2/response-time", "fig6/chaos", "mpc/solve", "lint/module"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q", name)
		}
	}
}

func TestBadInvocations(t *testing.T) {
	cases := [][]string{
		{"-scale", "huge"},
		{"-scenarios", "("},
		{"-scenarios", "no/such"},
		{"-slowdown", "mpc/solve"},    // missing =factor
		{"-slowdown", "mpc/solve=1"},  // factor < 2
		{"-slowdown", "no/such=2"},    // unknown scenario
		{"-compare", "only-one.json"}, // one file
		{"stray-positional.json"},     // positional without -compare
		{"-no-such-flag"},             // flag error
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want exit 2 (stderr: %s)", args, code, errOut.String())
		}
	}
	// Compare against missing files is a runtime failure, not usage.
	var out, errOut strings.Builder
	if code := run([]string{"-compare", "missing-a.json", "missing-b.json"}, &out, &errOut); code != 1 {
		t.Errorf("compare with missing files = %d, want 1", code)
	}
}

// TestSessionCompareAndSlowdownGate is the acceptance path end to end:
// run a scenario subset twice, compare (zero regressions), then rerun
// with an injected 2x slowdown and watch the gate go nonzero.
//
// Each op takes well under a millisecond, and on a shared host such
// timings swing by 2x within a session. So every session takes 32 reps,
// and a discarded first session absorbs the process's own warm-up: the
// first session in a process runs systematically slower.
func TestSessionCompareAndSlowdownGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmark scenarios")
	}
	dir := t.TempDir()
	root := repoRoot(t)
	base := filepath.Join(dir, "BENCH_a.json")
	again := filepath.Join(dir, "BENCH_b.json")
	slow := filepath.Join(dir, "BENCH_slow.json")
	common := []string{"-scale", "quick", "-reps", "32", "-warmup", "1",
		"-scenarios", "mpc/solve|packing/.*", "-module-root", root}

	warm := filepath.Join(dir, "BENCH_warm.json")
	for _, tc := range []struct{ path, slowdown string }{
		{warm, ""}, {base, ""}, {again, ""}, {slow, "mpc/solve=2"},
	} {
		args := append([]string{}, common...)
		args = append(args, "-label", filepath.Base(tc.path), "-out", tc.path)
		if tc.slowdown != "" {
			args = append(args, "-slowdown", tc.slowdown)
		}
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("session %s: exit %d\nstderr: %s", tc.path, code, errOut.String())
		}
	}

	doc, err := bench.ReadFile(base)
	if err != nil {
		t.Fatalf("session output does not validate: %v", err)
	}
	if doc.Scale != "quick" || doc.Reps != 32 || len(doc.Scenarios) != 3 {
		t.Errorf("session doc header wrong: %+v", doc)
	}
	if doc.CreatedAt == "" || doc.GoVersion == "" {
		t.Error("driver did not stamp CreatedAt/GoVersion")
	}

	// Two same-binary runs: no regressions, exit 0. Since the hot
	// scenarios went allocation-free their ops are ~0.2ms, small enough
	// that scheduler/frequency jitter between two back-to-back sessions
	// can exceed the 20% same-machine default — compare at 80% here;
	// the 2x-slowdown gate below still runs at the defaults.
	var out, errOut strings.Builder
	if code := run([]string{"-compare", "-threshold", "0.8", base, again}, &out, &errOut); code != 0 {
		t.Errorf("same-binary compare exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "0 regressed") {
		t.Errorf("same-binary compare found regressions:\n%s", out.String())
	}

	// The 2x slowdown must be flagged at the default thresholds.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-compare", base, slow}, &out, &errOut); code != 1 {
		t.Errorf("slowdown compare exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(errOut.String(), "regression(s)") {
		t.Errorf("2x slowdown not flagged:\n%s%s", out.String(), errOut.String())
	}
	// And only the slowed scenario did twice the work. Whether an unslowed
	// scenario's timing crosses the 20% default between two sessions
	// depends on host noise, so this is checked on the allocation ratio
	// instead: a slowed op runs its scenario twice, doubling its
	// allocations exactly, and an unslowed op allocates what it did.
	slowed, packing := 0, 0
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) < 2:
		case f[0] == "mpc/solve":
			slowed++
			if f[1] != "regressed" || !strings.HasSuffix(line, "allocs x2.000") {
				t.Errorf("slowed scenario not regressed with doubled allocations: %q", line)
			}
		case strings.HasPrefix(f[0], "packing/"):
			packing++
			if !strings.HasSuffix(line, "allocs x1.000") {
				t.Errorf("unslowed scenario's allocations moved: %q", line)
			}
		}
	}
	if slowed != 1 || packing != 2 {
		t.Errorf("slowdown compare lists %d mpc/solve and %d packing lines, want 1 and 2:\n%s", slowed, packing, out.String())
	}
}

func TestProfilingWritesPerScenarioFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmark scenarios")
	}
	dir := t.TempDir()
	prof := filepath.Join(dir, "prof")
	var out, errOut strings.Builder
	code := run([]string{"-scale", "quick", "-reps", "2", "-warmup", "-1",
		"-scenarios", "packing/ffd", "-out", filepath.Join(dir, "BENCH_p.json"),
		"-cpuprofile", prof, "-memprofile", prof}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, name := range []string{"packing_ffd.cpu.pprof", "packing_ffd.mem.pprof"} {
		st, err := os.Stat(filepath.Join(prof, name))
		if err != nil {
			t.Errorf("profile missing: %v", err)
		} else if st.Size() == 0 {
			t.Errorf("profile %s is empty", name)
		}
	}
}

func TestBaselineMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmark scenarios")
	}
	dir := t.TempDir()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := repoRoot(t)
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(cwd); err != nil {
			t.Fatal(err)
		}
	}()
	var out, errOut strings.Builder
	code := run([]string{"-baseline", "-scale", "quick", "-reps", "2", "-warmup", "-1",
		"-scenarios", "packing/minslack", "-module-root", root}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	doc, err := bench.ReadFile(filepath.Join(dir, BaselineFile))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Label != "baseline" {
		t.Errorf("baseline label = %q", doc.Label)
	}
	if doc.CreatedAt != "" || doc.GoVersion != "" {
		t.Error("baseline mode must not stamp volatile fields (CreatedAt/GoVersion)")
	}
}

func TestParseSlowdown(t *testing.T) {
	name, factor, err := parseSlowdown("mpc/solve=3")
	if err != nil || name != "mpc/solve" || factor != 3 {
		t.Errorf("parseSlowdown = %q/%d/%v", name, factor, err)
	}
	if name, factor, err := parseSlowdown(""); err != nil || name != "" || factor != 0 {
		t.Errorf("empty slowdown = %q/%d/%v", name, factor, err)
	}
	for _, bad := range []string{"x", "mpc/solve=zero", "mpc/solve=0", "no/such=2"} {
		if _, _, err := parseSlowdown(bad); err == nil {
			t.Errorf("parseSlowdown(%q) accepted", bad)
		}
	}
}

func TestMetricsLine(t *testing.T) {
	if got := metricsLine(nil); got != "" {
		t.Errorf("metricsLine(nil) = %q", got)
	}
	got := metricsLine(map[string]float64{"b-key": 2, "a-key": 1.5})
	if got != "a-key=1.5 b-key=2" {
		t.Errorf("metricsLine = %q", got)
	}
}

// -h is a request for the usage, not an error: run returns exit status 0.
func TestHelpFlag(t *testing.T) {
	if code := run([]string{"-h"}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("run -h = %d, want 0", code)
	}
}
