package packing

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// diffInstance draws a seeded bin, already loaded, and a candidate list.
func diffInstance(r *rand.Rand, seed int64) (*Bin, []Item) {
	b := &Bin{ID: "b", CPUCap: 4 + 12*r.Float64(), MemCap: 8 + 24*r.Float64()}
	for i := 0; i < r.Intn(6); i++ {
		b.Add(Item{ID: fmt.Sprintf("old%d", i), CPU: 0.1 + 1.9*r.Float64(), Mem: 0.5 + 2*r.Float64()})
	}
	items := make([]Item, r.Intn(16))
	for i := range items {
		items[i] = Item{ID: fmt.Sprintf("s%d-vm%02d", seed, i), CPU: 0.05 + 2.95*r.Float64(), Mem: 0.25 + 3*r.Float64()}
		if i > 0 && r.Intn(5) == 0 {
			items[i].CPU = items[i-1].CPU // exact ties exercise the ID order
		}
	}
	return b, items
}

// sameResult reports how got differs from the reference, or "".
func sameResult(got, want MinSlackResult) string {
	//lint:ignore floatcompare the search must reach the reference's slack bit for bit
	if got.Slack != want.Slack || got.Nodes != want.Nodes || got.Widened != want.Widened ||
		got.Exhausted != want.Exhausted || len(got.Chosen) != len(want.Chosen) {
		return fmt.Sprintf("got %+v, reference %+v", got, want)
	}
	for i := range want.Chosen {
		if got.Chosen[i] != want.Chosen[i] {
			return fmt.Sprintf("chosen[%d] = %+v, reference %+v", i, got.Chosen[i], want.Chosen[i])
		}
	}
	return ""
}

// edgeInstance reshapes a diffInstance into the cases the search's bulk
// counts must get exactly right: zero-CPU items, which end the suffix
// sums at zero so the prune binary search meets equality (slack-0 >=
// best where slack is best); a bin loaded past its 10% headroom, so
// every candidate fails on CPU and a whole level is one bulk count;
// memory-infeasible items among the small ones, inside the CPU-feasible
// suffix; and a negative or NaN CPU (NaN lists cut to 12 items), which
// the search must set aside.
func edgeInstance(r *rand.Rand, b *Bin, items []Item) []Item {
	if r.Intn(2) == 0 {
		for i := range items {
			if r.Intn(3) == 0 {
				items[i].CPU = 0
			}
		}
	}
	if r.Intn(3) == 0 {
		load := b.CPUCap*(0.91+0.08*r.Float64()) - b.CPUUsed()
		b.Add(Item{ID: "load", CPU: max(load, 0), Mem: 0.1})
	}
	if r.Intn(2) == 0 {
		for i := range items {
			if items[i].CPU < 1 && r.Intn(2) == 0 {
				items[i].Mem = b.MemCap + r.Float64()
			}
		}
	}
	if len(items) > 0 {
		switch r.Intn(6) {
		case 0:
			items[r.Intn(len(items))].CPU = -0.01 - r.Float64()
		case 1:
			items = items[:min(len(items), 12)]
			items[r.Intn(len(items))].CPU = math.NaN()
		}
	}
	return items
}

// TestMinimumSlackMatchesReference compares the search with the
// re-summing search it replaced, pooled and pool-less, with and without
// headroom. Node budgets are drawn small enough that widening and
// exhaustion occur. Seeds past 400 draw the edge cases of edgeInstance
// and budgets of 1–3 nodes, which one bulk count crosses once and then
// again. A list with invalid items must give, field by field, the
// reference's result on its valid items: they are set aside and cost no
// node.
func TestMinimumSlackMatchesReference(t *testing.T) {
	pool := NewPool()
	widened, exhausted, chosen, tiny, invalid := 0, 0, 0, 0, 0
	for seed := int64(1); seed <= 800; seed++ {
		r := rand.New(rand.NewSource(seed))
		b, items := diffInstance(r, seed)
		cfg := DefaultMinSlackConfig()
		cfg.Epsilon = 0.2 * r.Float64()
		cfg.MaxNodes = []int{5, 40, 300, 20000}[r.Intn(4)]
		r.Intn(4) // a draw that bounded items per bin; each seed keeps its instance
		if seed > 400 {
			cfg.MaxNodes = []int{1, 2, 3, 5, 40, 20000}[r.Intn(6)]
			items = edgeInstance(r, b, items)
		}
		valid := slices.DeleteFunc(slices.Clone(items), func(it Item) bool {
			return math.IsNaN(it.CPU) || math.IsInf(it.CPU, 0) || it.CPU < 0
		})
		if len(valid) < len(items) {
			invalid++
		}
		for _, cons := range []VectorConstraint{{}, {CPUHeadroom: 0.1}} {
			want := refMinimumSlack(b, valid, cons, cfg)
			plain := MinimumSlack(b, items, cons, cfg)
			cfg.Pool = pool
			pooled := MinimumSlack(b, items, cons, cfg)
			cfg.Pool = nil
			if d := sameResult(plain, want); d != "" {
				t.Fatalf("seed %d, headroom %v, pool-less: %s", seed, cons.CPUHeadroom, d)
			}
			if d := sameResult(pooled, want); d != "" {
				t.Fatalf("seed %d, headroom %v, pooled: %s", seed, cons.CPUHeadroom, d)
			}
			if want.Widened {
				widened++
			}
			if want.Exhausted {
				exhausted++
				if cfg.MaxNodes <= 3 {
					tiny++
				}
			}
			chosen += len(want.Chosen)
		}
	}
	if widened == 0 || exhausted == 0 || chosen == 0 || tiny == 0 || invalid == 0 {
		t.Fatalf("instances too easy: %d widened, %d exhausted (%d on 1–3 nodes), %d items chosen, %d lists with invalid items",
			widened, exhausted, tiny, chosen, invalid)
	}
}

// TestFirstFitAllocsIndependentOfBins: FirstFit's constraint checks
// allocate nothing, so scanning more bins allocates nothing more.
func TestFirstFitAllocsIndependentOfBins(t *testing.T) {
	cons := VectorConstraint{}
	allocs := func(nBins int) float64 {
		items := []Item{{ID: "a", CPU: 3, Mem: 1}, {ID: "b", CPU: 3, Mem: 1}}
		bins := make([]*Bin, nBins)
		for i := range bins {
			bins[i] = &Bin{ID: fmt.Sprint(i), CPUCap: 1, MemCap: 4} // too small for the items
		}
		last := bins[nBins-1]
		last.CPUCap = 8 // only the last bin admits them
		return testing.AllocsPerRun(20, func() {
			last.items, last.cpuUsed, last.memUsed = last.items[:0], 0, 0
			FirstFit(items, bins, cons)
		})
	}
	if few, many := allocs(4), allocs(400); few != many {
		t.Fatalf("FirstFit allocates %v objects scanning 4 bins, %v scanning 400", few, many)
	}
}

// TestPlanViewReusesStorage: View returns the same bin for the same
// index and keeps its item storage; it hands a bin back with its load
// while the plan holds it, across lends, and zeroed after Drop or
// Forget; and a refilled bin carries the sums of a fresh one bit for
// bit.
func TestPlanViewReusesStorage(t *testing.T) {
	pool := NewPool()
	fill := func(b *Bin) {
		b.ID, b.CPUCap = "x", 10
		for i := 0; i < 5; i++ {
			b.Add(Item{ID: fmt.Sprint(i), CPU: 0.1 * float64(i+1), Mem: 0.3})
		}
	}
	zeroed := func(b *Bin) bool {
		return b.ID == "" && len(b.Items()) == 0 && b.CPUUsed() == 0 && b.MemUsed() == 0
	}
	pl := pool.Plan()
	first, held := pl.View(7)
	if held || !zeroed(first) {
		t.Fatalf("a new view came back held %v as %+v", held, first)
	}
	fill(first)
	pl.Items = append(pl.Items, Item{ID: "stale"})
	pl = pool.Plan()
	if len(pl.Items) != 0 {
		t.Fatalf("a new lend keeps %d items", len(pl.Items))
	}
	if again, held := pl.View(7); again != first || !held || len(again.Items()) != 5 {
		t.Fatalf("a held view came back as %p held %v with %d items, want %p held with 5", again, held, len(again.Items()), first)
	}
	pl.Drop(7)
	again, held := pl.View(7)
	if again != first || held || !zeroed(again) {
		t.Fatalf("a dropped view came back as %p held %v %+v, want %p zeroed", again, held, again, first)
	}
	if cap(again.items) < 5 {
		t.Fatalf("item storage dropped: cap %d", cap(again.items))
	}
	fill(again)
	pl.Forget()
	if b, held := pl.View(7); b != first || held || !zeroed(b) {
		t.Fatalf("a forgotten view came back as %p held %v %+v, want %p zeroed", b, held, b, first)
	}
	fill(again)
	fresh := &Bin{}
	fill(fresh)
	//lint:ignore floatcompare a refilled bin must carry a fresh bin's sums bit for bit
	if again.CPUUsed() != fresh.CPUUsed() || again.MemUsed() != fresh.MemUsed() {
		t.Fatalf("refilled sums %v/%v, fresh %v/%v", again.CPUUsed(), again.MemUsed(), fresh.CPUUsed(), fresh.MemUsed())
	}
	var nilPool *Pool
	if a, b := nilPool.Plan(), nilPool.Plan(); a == b {
		t.Fatal("a nil pool shares its planning storage")
	}
}
