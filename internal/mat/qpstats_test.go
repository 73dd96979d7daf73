package mat

import "testing"

// TestQPStatsCountsSolves pins the solve-quality tallies: every call
// through a QPState counts one solve, warm attempts only after seeding,
// and cold retries only when a warm start failed.
func TestQPStatsCountsSolves(t *testing.T) {
	w := NewWorkspace()
	p := boxQP(4, 41)
	var st QPState
	for i := 0; i < 5; i++ {
		if _, err := InequalityLSW(w, &st, p.a, p.b, nil, nil, p.g, p.h); err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
	}
	got := st.Stats()
	want := QPStats{Solves: 5, WarmAttempts: 4, ColdRetries: 0}
	if got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// TestQPStatsNil pins the disabled-instrument behavior.
func TestQPStatsNil(t *testing.T) {
	var st *QPState
	if st.Stats() != (QPStats{}) {
		t.Fatal("nil QPState stats should be zero")
	}
	w := NewWorkspace()
	p := boxQP(3, 43)
	// nil state: no tallies anywhere, solve still works.
	if _, err := InequalityLSW(w, nil, p.a, p.b, nil, nil, p.g, p.h); err != nil {
		t.Fatal(err)
	}
}

// TestQPStatsColdRetry forces a warm-start failure by seeding the state
// on one geometry and then handing it a program whose seeded working
// set is singular, so the retry path must fire and be counted.
func TestQPStatsColdRetry(t *testing.T) {
	w := NewWorkspace()
	p := boxQP(3, 44)
	var st QPState
	if _, err := InequalityLSW(w, &st, p.a, p.b, nil, nil, p.g, p.h); err != nil {
		t.Fatal(err)
	}
	if !st.Warm() {
		t.Fatal("state should be seeded after a successful solve")
	}
	// Duplicate an active row so the warm working set is rank-deficient:
	// find a seeded-active inequality and overwrite another row with it.
	src := -1
	for i, on := range st.active {
		if on {
			src = i
			break
		}
	}
	if src < 0 {
		t.Skip("no active inequality to duplicate in this instance")
	}
	dst := (src + 1) % p.g.Rows
	st.active[dst] = true // force both duplicates into the working set
	for j := 0; j < p.g.Cols; j++ {
		p.g.Set(dst, j, p.g.At(src, j))
	}
	p.h[dst] = p.h[src]
	x, err := InequalityLSW(w, &st, p.a, p.b, nil, nil, p.g, p.h)
	if err != nil {
		t.Fatalf("cold retry should have recovered: %v", err)
	}
	if !feasible(p, x, 1e-8) {
		t.Fatal("recovered solution infeasible")
	}
	got := st.Stats()
	if got.Solves != 2 || got.WarmAttempts != 1 || got.ColdRetries != 1 {
		t.Fatalf("stats = %+v, want 2 solves / 1 warm / 1 cold retry", got)
	}
}
