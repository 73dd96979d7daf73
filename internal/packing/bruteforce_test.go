package packing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bruteForceMinSlack enumerates every subset (n ≤ 16) and returns the
// minimum feasible slack — the exact optimum Algorithm 1 approximates.
func bruteForceMinSlack(b *Bin, items []Item, cons VectorConstraint) float64 {
	n := len(items)
	best := b.Slack()
	for mask := 1; mask < 1<<n; mask++ {
		var subset []Item
		cpu := 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				subset = append(subset, items[i])
				cpu += items[i].CPU
			}
		}
		if cpu > b.Slack()+1e-12 {
			continue
		}
		if !cons.Fits(b, subset) {
			continue
		}
		if s := b.Slack() - cpu; s < best {
			best = s
		}
	}
	return best
}

// With ε=0 and an ample node budget, Algorithm 1 must find the exact
// optimum on instances small enough to enumerate.
func TestMinimumSlackExactOnSmallInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(10)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				ID:  fmt.Sprintf("i%d", i),
				CPU: 0.1 + 3*rng.Float64(),
				Mem: rng.Float64() * 2,
			}
		}
		b := &Bin{ID: "b", CPUCap: 2 + 8*rng.Float64(), MemCap: 3 + 3*rng.Float64()}
		if rng.Intn(2) == 0 { // sometimes pre-load the bin
			b.Add(Item{ID: "pre", CPU: rng.Float64(), Mem: rng.Float64()})
		}
		cons := VectorConstraint{}
		want := bruteForceMinSlack(b, items, cons)

		// MinimumSlack mutates nothing, but it reads b.Slack(); pass a
		// fresh copy to be safe about planned items.
		bb := &Bin{ID: "b", CPUCap: b.CPUCap, MemCap: b.MemCap}
		for _, it := range b.Items() {
			bb.Add(it)
		}
		got := MinimumSlack(bb, items, cons, MinSlackConfig{Epsilon: 0, EpsilonStep: 1, MaxNodes: 1 << 22})
		if math.Abs(got.Slack-want) > 1e-9 {
			t.Fatalf("trial %d: MinimumSlack %v != brute force %v (n=%d cap=%v)",
				trial, got.Slack, want, n, b.CPUCap)
		}
	}
}

// The memory dimension must also be exact: brute force with a binding
// memory constraint.
func TestMinimumSlackExactUnderMemoryPressure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(8)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				ID:  fmt.Sprintf("i%d", i),
				CPU: 0.5 + 2*rng.Float64(),
				Mem: 0.5 + 2*rng.Float64(),
			}
		}
		// Tight memory: roughly half the items fit by memory.
		b := &Bin{ID: "b", CPUCap: 100, MemCap: 2 + 2*rng.Float64()}
		cons := VectorConstraint{}
		want := bruteForceMinSlack(b, items, cons)
		got := MinimumSlack(b, items, cons, MinSlackConfig{Epsilon: 0, EpsilonStep: 1, MaxNodes: 1 << 22})
		if math.Abs(got.Slack-want) > 1e-9 {
			t.Fatalf("trial %d: %v != %v", trial, got.Slack, want)
		}
	}
}
