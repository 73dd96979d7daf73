package packing_test

// Native fuzzing for the packers. FuzzMinimumSlack drives Algorithm 1
// through the runtime invariant checker: every input must yield a
// feasible selection whose slack accounting balances and that is never
// worse than greedy first-fit-decreasing beyond the configured ε. It
// also runs the reference search on the same input, and the search must
// return exactly its result. FuzzFirstFitDecreasing feeds raw float64
// bits to FFD, so NaN, ±Inf, negatives and subnormals occur, and
// requires that no invalid item is planned and every bin holds what it
// admits. Seeds live under testdata/fuzz.

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"vdcpower/internal/check"
	"vdcpower/internal/packing"
)

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
		ref := packing.RefMinimumSlack(bin, items, cons, cfg)
		same := math.Float64bits(res.Slack) == math.Float64bits(ref.Slack) && res.Nodes == ref.Nodes && res.Widened == ref.Widened &&
			res.Exhausted == ref.Exhausted && len(res.Chosen) == len(ref.Chosen)
		for i := 0; same && i < len(res.Chosen); i++ {
			same = res.Chosen[i] == ref.Chosen[i]
		}
		if !same {
			t.Fatalf("budget %d, bin %+v, items %v: search %+v, reference %+v", budget, bin, items, res, ref)
		}
	})
}

// decodeFFD turns fuzz bytes into bins, items and the constraint. The
// first byte picks 1–4 bins and a headroom of 0 or 10%; each bin then
// takes two bytes, its CPU and memory capacity in quarters (0–63.75).
// Every further 16 bytes are one item: the little-endian bits of its CPU
// and of its memory. The item count is capped at 16. It reports false
// when data is too short to hold the bins.
func decodeFFD(data []byte) ([]*packing.Bin, []packing.Item, packing.VectorConstraint, bool) {
	if len(data) == 0 {
		return nil, nil, packing.VectorConstraint{}, false
	}
	nBins := 1 + int(data[0]%4)
	cons := packing.VectorConstraint{CPUHeadroom: 0.1 * float64(data[0]>>2&1)}
	if len(data) < 1+2*nBins {
		return nil, nil, cons, false
	}
	bins := make([]*packing.Bin, nBins)
	for i := range bins {
		bins[i] = &packing.Bin{ID: fmt.Sprintf("b%d", i),
			CPUCap: float64(data[1+2*i]) / 4, MemCap: float64(data[2+2*i]) / 4}
	}
	rest := data[1+2*nBins:]
	var items []packing.Item
	for i := 0; i+16 <= len(rest) && len(items) < 16; i += 16 {
		items = append(items, packing.Item{
			ID:  fmt.Sprintf("it-%02d", i/16),
			CPU: math.Float64frombits(binary.LittleEndian.Uint64(rest[i:])),
			Mem: math.Float64frombits(binary.LittleEndian.Uint64(rest[i+8:])),
		})
	}
	return bins, items, cons, true
}

func FuzzFirstFitDecreasing(f *testing.F) {
	f.Add([]byte{0, 40, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		bins, items, cons, ok := decodeFFD(data)
		if !ok {
			return
		}
		valid := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) && x >= 0 }
		asg, unplaced := packing.FirstFitDecreasing(items, bins, cons)
		if len(asg)+len(unplaced) != len(items) {
			t.Fatalf("%d items planned and %d unplaced of %d", len(asg), len(unplaced), len(items))
		}
		for _, it := range items {
			if _, planned := asg[it.ID]; planned && !(valid(it.CPU) && valid(it.Mem)) {
				t.Fatalf("invalid item %+v planned onto %s", it, asg[it.ID])
			}
		}
		// Each bin's load, summed afresh in the order it was planned,
		// meets the limits Fits applies.
		var planned []packing.Item
		for _, b := range bins {
			cpu, mem := 0.0, 0.0
			for _, it := range b.Items() {
				if asg[it.ID] != b.ID {
					t.Fatalf("bin %s holds %s, assigned to %q", b.ID, it.ID, asg[it.ID])
				}
				cpu += it.CPU
				mem += it.Mem
			}
			if !(cpu <= b.CPUCap*(1-cons.CPUHeadroom)+1e-9 && mem <= b.MemCap+1e-9) {
				t.Fatalf("bin %+v over its limits: CPU %v, memory %v of %v", b, cpu, mem, b.Items())
			}
			planned = append(planned, b.Items()...)
		}
		if len(planned) != len(asg) {
			t.Fatalf("bins hold %d items, the assignment %d", len(planned), len(asg))
		}
		fresh := make([]*packing.Bin, len(bins))
		for i, b := range bins {
			fresh[i] = &packing.Bin{ID: b.ID, CPUCap: b.CPUCap, MemCap: b.MemCap}
		}
		if err := packing.Validate(asg, planned, fresh, cons); err != nil {
			t.Fatalf("Validate refuses FFD's assignment: %v", err)
		}
	})
}
