package testbed

import (
	"testing"
)

func TestRunStaticFreezesAllocations(t *testing.T) {
	tb, err := New(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	before := tb.Apps[0].Allocations()
	recs, err := tb.RunStatic(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := tb.Apps[0].Allocations()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("allocations moved during static run: %v -> %v", before, after)
		}
	}
	if len(recs) != 25 {
		t.Fatalf("records = %d", len(recs))
	}
	for _, r := range recs {
		if r.PowerW <= 0 || len(r.T90) != len(tb.Apps) {
			t.Fatalf("bad record %+v", r)
		}
	}
}

func TestFig3StaticViolatesDuringSurge(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	cfg := quickConfig()
	controlled, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	static, err := Fig3Static(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rate := func(res *Fig3Result) float64 {
		viol, n := 0, 0
		for _, p := range res.ResponseTime {
			// Judge the second half of the surge: the controller has
			// had time to react by then; the static system has not.
			if p.Time >= 800 && p.Time < 1200 {
				n++
				if p.Value > cfg.Setpoint*1.5 {
					viol++
				}
			}
		}
		return float64(viol) / float64(n)
	}
	rc, rs := rate(controlled), rate(static)
	if rs <= rc {
		t.Fatalf("static violation rate %.2f not above controlled %.2f", rs, rc)
	}
	if rs < 0.5 {
		t.Fatalf("static system absorbed the surge (%.2f) — scenario too easy", rs)
	}
}
