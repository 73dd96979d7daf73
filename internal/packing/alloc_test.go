package packing

// Steady-state zero-allocation gate for the packing/minslack hot path
// (DESIGN §12): once a Pool has warmed up, repeated MinimumSlack
// calls through it must not touch the heap. Skipped under -race.

import (
	"fmt"
	"testing"

	"vdcpower/internal/race"
)

func TestMinimumSlackZeroAllocPooled(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	bin := &Bin{ID: "s1", CPUCap: 8, MemCap: 32}
	items := make([]Item, 12)
	for i := range items {
		items[i] = Item{
			ID:  fmt.Sprintf("vm%02d", i),
			CPU: 0.3 + 0.17*float64(i%7),
			Mem: 1 + float64(i%4),
		}
	}
	cons := VectorConstraint{CPUHeadroom: 0.1}
	cfg := DefaultMinSlackConfig()
	cfg.Pool = NewPool()
	for i := 0; i < 3; i++ { // warm the pool to its high-water mark
		MinimumSlack(bin, items, cons, cfg)
	}
	want := cloneItems(MinimumSlack(bin, items, cons, cfg).Chosen)
	allocs := testing.AllocsPerRun(200, func() {
		MinimumSlack(bin, items, cons, cfg)
	})
	if allocs != 0 {
		t.Fatalf("pooled MinimumSlack allocates %v objects/op in steady state, want 0", allocs)
	}
	// The pooled answer must still be the real answer after many reuses.
	got := MinimumSlack(bin, items, cons, cfg).Chosen
	if len(got) != len(want) {
		t.Fatalf("pooled result drifted: %d chosen, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pooled result drifted at %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func cloneItems(items []Item) []Item {
	return append([]Item(nil), items...)
}

// TestMinimumSlackPoolMatchesPoolless proves the pool is purely an
// allocation strategy: for a spread of instances, the pooled search
// returns exactly the same packing as the allocating one.
func TestMinimumSlackPoolMatchesPoolless(t *testing.T) {
	pool := NewPool()
	cons := VectorConstraint{}
	for trial := 0; trial < 20; trial++ {
		bin := &Bin{ID: "b", CPUCap: 4 + float64(trial%5), MemCap: 16}
		n := 3 + trial%9
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				ID:  fmt.Sprintf("t%d-vm%d", trial, i),
				CPU: 0.2 + 0.31*float64((i*7+trial)%11),
				Mem: 0.5 + float64((i+trial)%5),
			}
		}
		cfg := DefaultMinSlackConfig()
		plain := MinimumSlack(bin, items, cons, cfg)
		cfg.Pool = pool
		pooled := MinimumSlack(bin, items, cons, cfg)
		//lint:ignore floatcompare the pooled search must be exactly the allocating search
		if plain.Slack != pooled.Slack || plain.Widened != pooled.Widened ||
			plain.Exhausted != pooled.Exhausted || plain.Nodes != pooled.Nodes {
			t.Fatalf("trial %d: pooled outcome %+v, plain %+v", trial, pooled, plain)
		}
		if len(plain.Chosen) != len(pooled.Chosen) {
			t.Fatalf("trial %d: pooled chose %d items, plain %d", trial, len(pooled.Chosen), len(plain.Chosen))
		}
		for i := range plain.Chosen {
			if plain.Chosen[i] != pooled.Chosen[i] {
				t.Fatalf("trial %d item %d: pooled %+v, plain %+v", trial, i, pooled.Chosen[i], plain.Chosen[i])
			}
		}
	}
}
