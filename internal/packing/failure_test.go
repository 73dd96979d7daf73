package packing

import "testing"

// TestFirstFitAgainstRejectingConstraint: bins of zero capacity admit
// nothing, so every item comes back unplaced.
func TestFirstFitAgainstRejectingConstraint(t *testing.T) {
	bins := []*Bin{bin("b1", 0, 0), bin("b2", 0, 0)}
	items := []Item{item("a", 1, 1)}
	asg, unplaced := FirstFit(items, bins, VectorConstraint{})
	if len(asg) != 0 || len(unplaced) != 1 {
		t.Fatalf("asg=%v unplaced=%v", asg, unplaced)
	}
}

func TestMinimumSlackZeroCapacityBin(t *testing.T) {
	b := bin("dead", 0, 0)
	items := []Item{item("a", 1, 1)}
	res := MinimumSlack(b, items, VectorConstraint{}, DefaultMinSlackConfig())
	if len(res.Chosen) != 0 {
		t.Fatal("packed onto a zero-capacity bin")
	}
}

func TestPackingZeroSizeItems(t *testing.T) {
	// Zero-demand VMs (idle, but still placed) must not break anything.
	b := bin("b", 4, 4)
	items := []Item{item("idle1", 0, 0.1), item("idle2", 0, 0.1), item("busy", 4, 1)}
	res := MinimumSlack(b, items, VectorConstraint{}, DefaultMinSlackConfig())
	total := 0.0
	for _, it := range res.Chosen {
		total += it.CPU
	}
	if total > 4+1e-9 {
		t.Fatalf("overpacked: %v", total)
	}
	if res.Slack > 1e-9 {
		t.Fatalf("slack %v, the busy item fits exactly", res.Slack)
	}
}
