package packing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func bin(id string, cpu, mem float64) *Bin {
	return &Bin{ID: id, CPUCap: cpu, MemCap: mem}
}

func item(id string, cpu, mem float64) Item {
	return Item{ID: id, CPU: cpu, Mem: mem}
}

var cons = VectorConstraint{}

func TestBinAccounting(t *testing.T) {
	b := bin("b", 10, 16)
	b.Add(item("a", 2, 4))
	b.Add(item("c", 3, 1))
	if b.CPUUsed() != 5 || b.MemUsed() != 5 {
		t.Fatalf("used cpu=%v mem=%v", b.CPUUsed(), b.MemUsed())
	}
	if b.Slack() != 5 {
		t.Fatalf("Slack = %v", b.Slack())
	}
}

func TestVectorConstraint(t *testing.T) {
	b := bin("b", 10, 8)
	if !cons.Fits(b, []Item{item("a", 10, 8)}) {
		t.Fatal("exact fit rejected")
	}
	if cons.Fits(b, []Item{item("a", 10.1, 1)}) {
		t.Fatal("CPU overflow admitted")
	}
	if cons.Fits(b, []Item{item("a", 1, 8.1)}) {
		t.Fatal("memory overflow admitted")
	}
	head := VectorConstraint{CPUHeadroom: 0.2}
	if head.Fits(b, []Item{item("a", 8.5, 1)}) {
		t.Fatal("headroom violated")
	}
	if !head.Fits(b, []Item{item("a", 8, 1)}) {
		t.Fatal("within headroom rejected")
	}
}

func TestMinimumSlackExactFit(t *testing.T) {
	// Items 6, 4 exactly fill a 10-GHz bin; greedy-by-size FFD would also
	// find this, but 7+4 style traps need search: see next test.
	b := bin("b", 10, 100)
	items := []Item{item("a", 6, 1), item("b", 4, 1), item("c", 3, 1)}
	res := MinimumSlack(b, items, cons, DefaultMinSlackConfig())
	if math.Abs(res.Slack) > 1e-9 {
		t.Fatalf("slack = %v, want 0", res.Slack)
	}
	total := 0.0
	for _, it := range res.Chosen {
		total += it.CPU
	}
	if math.Abs(total-10) > 1e-9 {
		t.Fatalf("chosen total = %v", total)
	}
}

func TestMinimumSlackBeatsGreedy(t *testing.T) {
	// Bin of 10: greedy takes 7 then 2 (slack 1); optimal is 6+4 (slack 0).
	b := bin("b", 10, 100)
	items := []Item{item("g", 7, 1), item("a", 6, 1), item("b", 4, 1), item("c", 2, 1)}
	res := MinimumSlack(b, items, cons, MinSlackConfig{Epsilon: 0, EpsilonStep: 0.1, MaxNodes: 10000})
	if math.Abs(res.Slack) > 1e-9 {
		t.Fatalf("slack = %v, want 0 (6+4)", res.Slack)
	}
}

func TestMinimumSlackRespectsMemory(t *testing.T) {
	// The CPU-optimal subset violates memory; the search must fall back.
	b := bin("b", 10, 4)
	items := []Item{item("big", 10, 8), item("a", 5, 2), item("c", 4, 2)}
	res := MinimumSlack(b, items, cons, DefaultMinSlackConfig())
	for _, it := range res.Chosen {
		if it.ID == "big" {
			t.Fatal("memory-violating item chosen")
		}
	}
	if math.Abs(res.Slack-1) > 1e-9 { // 5+4 fits both dims → slack 1
		t.Fatalf("slack = %v, want 1", res.Slack)
	}
}

func TestMinimumSlackNonEmptyBin(t *testing.T) {
	b := bin("b", 10, 100)
	b.Add(item("pre", 4, 1))
	items := []Item{item("a", 6, 1), item("b", 5, 1)}
	res := MinimumSlack(b, items, cons, DefaultMinSlackConfig())
	if math.Abs(res.Slack) > 1e-9 {
		t.Fatalf("slack = %v, want 0 (pre 4 + a 6)", res.Slack)
	}
	if len(res.Chosen) != 1 || res.Chosen[0].ID != "a" {
		t.Fatalf("chosen = %v", res.Chosen)
	}
}

func TestMinimumSlackEpsilonEarlyExit(t *testing.T) {
	b := bin("b", 10, 100)
	var items []Item
	for i := 0; i < 12; i++ {
		items = append(items, item(fmt.Sprintf("i%d", i), 1+float64(i%3), 1))
	}
	res := MinimumSlack(b, items, cons, MinSlackConfig{Epsilon: 2.0, EpsilonStep: 1, MaxNodes: 100000})
	if res.Slack > 2.0 {
		t.Fatalf("slack %v exceeds epsilon", res.Slack)
	}
	// A tiny epsilon explores more nodes than a loose one.
	tight := MinimumSlack(b, items, cons, MinSlackConfig{Epsilon: 0, EpsilonStep: 1, MaxNodes: 100000})
	if tight.Nodes < res.Nodes {
		t.Fatalf("tight ε explored fewer nodes (%d) than loose (%d)", tight.Nodes, res.Nodes)
	}
}

func TestMinimumSlackBudgetWidensEpsilon(t *testing.T) {
	// 30 items with irrational-ish sizes force a big search; a tiny node
	// budget must trigger widening and still return a valid packing.
	rng := rand.New(rand.NewSource(42))
	b := bin("b", 20, 1000)
	var items []Item
	for i := 0; i < 30; i++ {
		items = append(items, item(fmt.Sprintf("i%d", i), 0.5+rng.Float64(), 1))
	}
	res := MinimumSlack(b, items, cons, MinSlackConfig{Epsilon: 0, EpsilonStep: 0.5, MaxNodes: 50})
	if !res.Widened {
		t.Fatal("expected budget widening")
	}
	// Result must still be feasible.
	total := 0.0
	for _, it := range res.Chosen {
		total += it.CPU
	}
	if total > b.CPUCap+1e-9 {
		t.Fatalf("infeasible result: %v > %v", total, b.CPUCap)
	}
}

func TestMinimumSlackNoCandidates(t *testing.T) {
	b := bin("b", 10, 10)
	res := MinimumSlack(b, nil, cons, DefaultMinSlackConfig())
	if len(res.Chosen) != 0 || res.Slack != 10 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestMinimumSlackDeterministic(t *testing.T) {
	b1 := bin("b", 10, 100)
	b2 := bin("b", 10, 100)
	items := []Item{item("a", 3, 1), item("b", 3, 1), item("c", 4, 1), item("d", 2, 1)}
	r1 := MinimumSlack(b1, items, cons, DefaultMinSlackConfig())
	r2 := MinimumSlack(b2, items, cons, DefaultMinSlackConfig())
	if len(r1.Chosen) != len(r2.Chosen) {
		t.Fatal("nondeterministic result size")
	}
	for i := range r1.Chosen {
		if r1.Chosen[i].ID != r2.Chosen[i].ID {
			t.Fatal("nondeterministic choice order")
		}
	}
}

// Property: Minimum Slack never does worse than First Fit Decreasing on a
// single bin, and its result is always feasible.
func TestMinimumSlackDominatesFFDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		var items []Item
		for i := 0; i < n; i++ {
			items = append(items, item(fmt.Sprintf("i%d", i), 0.2+3*rng.Float64(), rng.Float64()))
		}
		capCPU := 4 + 6*rng.Float64()
		msBin := bin("b", capCPU, 1000)
		res := MinimumSlack(msBin, items, cons, DefaultMinSlackConfig())
		ffdBin := bin("b", capCPU, 1000)
		FirstFitDecreasing(items, []*Bin{ffdBin}, cons)
		if res.Slack > ffdBin.Slack()+1e-9 {
			return false
		}
		used := 0.0
		for _, it := range res.Chosen {
			used += it.CPU
		}
		return used <= capCPU+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestFirstFitOrderAndOverflow(t *testing.T) {
	b1, b2 := bin("b1", 5, 100), bin("b2", 5, 100)
	items := []Item{item("a", 3, 1), item("b", 3, 1), item("c", 2, 1), item("d", 9, 1)}
	asg, unplaced := FirstFit(items, []*Bin{b1, b2}, cons)
	if asg["a"] != "b1" || asg["b"] != "b2" || asg["c"] != "b1" {
		t.Fatalf("assignment %v", asg)
	}
	if len(unplaced) != 1 || unplaced[0].ID != "d" {
		t.Fatalf("unplaced %v", unplaced)
	}
}

func TestFirstFitDecreasingSortsFirst(t *testing.T) {
	b1 := bin("b1", 10, 100)
	items := []Item{item("s", 2, 1), item("l", 8, 1), item("m", 3, 1)}
	asg, unplaced := FirstFitDecreasing(items, []*Bin{b1}, cons)
	// Decreasing: l(8) then m(3) doesn't fit, s(2) fits.
	if asg["l"] != "b1" || asg["s"] != "b1" {
		t.Fatalf("assignment %v", asg)
	}
	if len(unplaced) != 1 || unplaced[0].ID != "m" {
		t.Fatalf("unplaced %v", unplaced)
	}
}

func TestSortBinsByEfficiency(t *testing.T) {
	a := &Bin{ID: "a", Efficiency: 0.02}
	b := &Bin{ID: "b", Efficiency: 0.04}
	c := &Bin{ID: "c", Efficiency: 0.04}
	bins := []*Bin{a, c, b}
	SortBinsByEfficiency(bins)
	if bins[0].ID != "b" || bins[1].ID != "c" || bins[2].ID != "a" {
		t.Fatalf("order: %s %s %s", bins[0].ID, bins[1].ID, bins[2].ID)
	}
}

func TestValidateOracle(t *testing.T) {
	b1 := bin("b1", 5, 5)
	items := []Item{item("a", 3, 1), item("b", 3, 1)}
	good := Assignment{"a": "b1"}
	if err := Validate(good, items, []*Bin{b1}, cons); err != nil {
		t.Fatal(err)
	}
	bad := Assignment{"a": "b1", "b": "b1"} // 6 > 5 CPU
	if err := Validate(bad, items, []*Bin{b1}, cons); err == nil {
		t.Fatal("expected violation")
	}
	unknown := Assignment{"a": "nope"}
	if err := Validate(unknown, items, []*Bin{b1}, cons); err == nil {
		t.Fatal("expected unknown-bin error")
	}
}

// Property: FFD over many bins yields a feasible assignment.
func TestFFDFeasibleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var items []Item
		for i := 0; i < 20; i++ {
			items = append(items, item(fmt.Sprintf("i%d", i), rng.Float64()*3, rng.Float64()*2))
		}
		var bins []*Bin
		for i := 0; i < 12; i++ {
			bins = append(bins, bin(fmt.Sprintf("b%d", i), 2+rng.Float64()*6, 4))
		}
		asg, unplaced := FirstFitDecreasing(items, bins, cons)
		fresh := make([]*Bin, len(bins))
		for i, b := range bins {
			fresh[i] = bin(b.ID, b.CPUCap, b.MemCap)
		}
		if err := Validate(asg, items, fresh, cons); err != nil {
			return false
		}
		return len(asg)+len(unplaced) == len(items)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMinimumSlack20(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var items []Item
	for i := 0; i < 20; i++ {
		items = append(items, item(fmt.Sprintf("i%d", i), 0.3+rng.Float64()*2, 1))
	}
	cfg := DefaultMinSlackConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb := bin("b", 12, 1000)
		MinimumSlack(bb, items, cons, cfg)
	}
}

func BenchmarkFFD100x50(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var items []Item
	for i := 0; i < 100; i++ {
		items = append(items, item(fmt.Sprintf("i%d", i), rng.Float64()*3, rng.Float64()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var bins []*Bin
		for j := 0; j < 50; j++ {
			bins = append(bins, bin(fmt.Sprintf("b%d", j), 12, 16))
		}
		FirstFitDecreasing(items, bins, cons)
	}
}
