package packing_test

// Native fuzzing for the MBS search (Algorithm 1). The fuzzer drives
// packing.MinimumSlack through the runtime invariant checker: every
// input must yield a feasible selection whose slack accounting balances
// and that is never worse than greedy first-fit-decreasing beyond the
// configured ε. It also runs the generic search on the same input, and
// the vector search must return exactly its result. Seeds live in
// testdata/fuzz/FuzzMinimumSlack.

import (
	"fmt"
	"math"
	"testing"

	"vdcpower/internal/check"
	"vdcpower/internal/packing"
)

// genericVector is VectorConstraint under another type: Fits is
// promoted, so it admits exactly what VectorConstraint admits, but
// MinimumSlack runs its generic search for it.
type genericVector struct{ packing.VectorConstraint }

// decodePacking turns fuzz bytes into a bin, candidate items, the
// constraint and a node budget. The item count is capped so the
// branch-and-bound stays cheap per input. The high bits of the first
// two bytes pick the budget: 0 keeps the default, 1–31 nodes are small
// enough that a bulk count trips it.
func decodePacking(data []byte) (*packing.Bin, []packing.Item, packing.VectorConstraint, int) {
	bin := &packing.Bin{
		ID:     "fuzz-bin",
		CPUCap: 1 + float64(data[0]%32)*0.5, // 1 .. 16.5 GHz
		MemCap: 1 + float64(data[1]%64)*0.5, // 1 .. 32.5 GB
	}
	cons := packing.VectorConstraint{CPUHeadroom: float64(data[0]%3) * 0.05}
	budget := int(data[0]>>5)<<2 | int(data[1]>>6)
	rest := data[2:]
	if len(rest) > 32 {
		rest = rest[:32] // at most 16 items
	}
	var items []packing.Item
	for i := 0; i+1 < len(rest); i += 2 {
		items = append(items, packing.Item{
			ID:  fmt.Sprintf("it-%02d", i/2),
			CPU: float64(rest[i]) / 16,   // 0 .. ~16 GHz
			Mem: float64(rest[i+1]) / 32, // 0 .. ~8 GB
		})
	}
	return bin, items, cons, budget
}

func FuzzMinimumSlack(f *testing.F) {
	f.Add([]byte("\x18\x20ABCDEFGHIJ"))
	f.Add([]byte{4, 8, 0, 0, 255, 255, 16, 16, 32, 8})
	f.Add([]byte{31, 63, 200, 10, 100, 5, 50, 2, 25, 1, 12, 1, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		bin, items, cons, budget := decodePacking(data)
		cfg := packing.DefaultMinSlackConfig()
		cfg.MaxNodes = budget
		c := check.New(check.PackingInvariants()...)
		res := check.ObserveMinimumSlack(c, bin, items, cons, cfg)
		if err := c.Err(); err != nil {
			t.Fatalf("invariants violated for bin %+v items %v: %v", bin, items, err)
		}
		if math.IsNaN(res.Slack) || math.IsInf(res.Slack, 0) {
			t.Fatalf("non-finite slack %v", res.Slack)
		}
		if len(res.Chosen) > len(items) {
			t.Fatalf("chose %d items from %d candidates", len(res.Chosen), len(items))
		}
		gen := packing.MinimumSlack(bin, items, genericVector{cons}, cfg)
		same := math.Float64bits(res.Slack) == math.Float64bits(gen.Slack) && res.Nodes == gen.Nodes && res.Widened == gen.Widened &&
			res.Exhausted == gen.Exhausted && len(res.Chosen) == len(gen.Chosen)
		for i := 0; same && i < len(res.Chosen); i++ {
			same = res.Chosen[i] == gen.Chosen[i]
		}
		if !same {
			t.Fatalf("budget %d, bin %+v, items %v: vector search %+v, generic %+v", budget, bin, items, res, gen)
		}
	})
}
