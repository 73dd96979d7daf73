package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"vdcpower/internal/telemetry"
)

// TestBenchmarkFileMatchesCode fails when BENCHMARK.json and the code
// disagree on a workload or a metric, and checks that checkBenchmarkFile,
// which every run calls, refuses a file edited in any one place.
// TestWorkloads covers what the runs actually emit.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	const path = "../BENCHMARK.json"
	if err := checkBenchmarkFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(f map[string]any){
		"bound":    func(f map[string]any) { f["end_to_end"].([]any)[1].(map[string]any)["bound"] = 0.5 },
		"unit":     func(f map[string]any) { f["per_layer"].([]any)[0].(map[string]any)["unit"] = "s" },
		"why":      func(f map[string]any) { f["workloads"].([]any)[2].(map[string]any)["why"] = "x" },
		"dropped":  func(f map[string]any) { f["per_layer"] = f["per_layer"].([]any)[1:] },
		"reversed": func(f map[string]any) { e := f["end_to_end"].([]any); e[0], e[1] = e[1], e[0] },
	} {
		var f map[string]any
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatal(err)
		}
		edit(f)
		out, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		bad := filepath.Join(t.TempDir(), "BENCHMARK.json")
		if err := os.WriteFile(bad, out, 0o644); err != nil {
			t.Fatal(err)
		}
		if checkBenchmarkFile(bad) == nil {
			t.Errorf("%s: an edited BENCHMARK.json was accepted", name)
		}
	}
}

func TestQuantileRefusesThinTails(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{99, 0.9, false}, {100, 0.9, true},
	} {
		v, err := quantile(xs(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("quantile of %d samples at %g: err = %v, want ok = %v", c.n, c.q, err, c.ok)
		}
		if err == nil && (v < 0 || v > float64(c.n-1)) {
			t.Errorf("quantile of %d samples at %g = %g, outside the samples", c.n, c.q, v)
		}
	}
}

// TestSelfTimes checks self time = span − children on a logical clock:
// root [0,10] holds a [1,4] and b [5,6]; a holds c [2,3].
func TestSelfTimes(t *testing.T) {
	tr := telemetry.New(nil, 0)
	tk := tr.Track("t")
	at := func(sec float64) { tk.SetTime(sec) }
	at(0)
	root := tk.Start("root")
	at(1)
	a := tk.Start("a")
	at(2)
	c := tk.Start("c")
	at(3)
	c.End()
	at(4)
	a.End()
	at(5)
	b := tk.Start("b")
	at(6)
	b.End()
	at(10)
	root.End()

	want := map[string][2]float64{"root": {10, 6}, "a": {3, 2}, "b": {1, 1}, "c": {1, 1}}
	rows := selfTimes(tr.Snapshot())
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		w, ok := want[r.name]
		if !ok || r.count != 1 || math.Abs(r.total-w[0]) > 1e-12 || math.Abs(r.self-w[1]) > 1e-12 {
			t.Errorf("%s: count %d total %g self %g, want 1, %g, %g", r.name, r.count, r.total, r.self, w[0], w[1])
		}
	}
}

func TestHashFloatsIsBitExact(t *testing.T) {
	if hashFloats(0) == hashFloats(math.Copysign(0, -1)) {
		t.Error("+0 and -0 hash equal")
	}
	if hashFloats(1, 2) == hashFloats(2, 1) {
		t.Error("order does not change the hash")
	}
	if hashFloats(1, 2) != hashFloats(1, 2) {
		t.Error("the hash is not a function of its input")
	}
}
