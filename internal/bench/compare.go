package bench

import (
	"fmt"
	"io"
	"math"

	"vdcpower/internal/stats"
)

// Class is the verdict on one scenario's shift between two sessions.
type Class string

// Verdict classes.
const (
	ClassUnchanged Class = "unchanged"
	ClassImproved  Class = "improved"
	ClassRegressed Class = "regressed"
	// ClassAdded/ClassRemoved mark scenarios present in only one
	// document; they never gate (a new scenario has no baseline).
	ClassAdded   Class = "added"
	ClassRemoved Class = "removed"
)

// allocFloor is the median allocs/op below which alloc shifts are
// ignored: at a handful of allocations per op, one incidental runtime
// allocation is a large ratio but not a regression.
const allocFloor = 64

// hotAllocFloor is the tightened floor for the declared hot paths: they
// run allocation-free in steady state (DESIGN §12), so their per-op
// budget is a small fixed setup cost and even a few extra allocations
// signal a reuse regression.
const hotAllocFloor = 8

// allocFloorFor picks the alloc-shift floor for a scenario.
func allocFloorFor(name string) float64 {
	switch name {
	case "mpc/solve", "packing/minslack":
		return hotAllocFloor
	}
	return allocFloor
}

// Thresholds tune the gate. A scenario regresses only when its shift is
// both LARGE (median ratio beyond MinShift) and SIGNIFICANT
// (Mann-Whitney p below Alpha); each test alone is too twitchy — ratios
// flap on noisy medians with few reps, and significance alone flags
// 1%-but-real shifts nobody should block a merge over.
type Thresholds struct {
	// MinShift is the relative median shift that matters: 0.2 flags
	// >20% slower as regressed and >20% faster (in ratio terms,
	// new/old < 1/1.2) as improved.
	MinShift float64
	// Alpha is the Mann-Whitney significance level.
	Alpha float64
	// GateAllocs extends the gate to allocs/op (same MinShift/Alpha).
	// Alloc counts are nearly machine-independent, so CI can gate them
	// tightly even when timings cross hardware.
	GateAllocs bool
}

// DefaultThresholds suit same-machine comparisons; CI across unknown
// hardware should pass something far more generous (see the perf-smoke
// job).
func DefaultThresholds() Thresholds {
	return Thresholds{MinShift: 0.20, Alpha: 0.01}
}

// Delta is the compared record of one scenario.
type Delta struct {
	Name  string
	Class Class // overall verdict (time, plus allocs when gated)

	TimeClass                Class
	OldMedianNs, NewMedianNs float64
	Ratio                    float64 // new/old median ns
	P                        float64 // Mann-Whitney two-sided p on the ns samples

	AllocClass           Class
	OldAllocs, NewAllocs float64 // median allocs/op
	AllocRatio           float64
	AllocP               float64
}

// Comparison is the scenario-by-scenario verdict on two documents.
type Comparison struct {
	OldLabel, NewLabel string
	Th                 Thresholds
	Deltas             []Delta
}

// Compare classifies every scenario of new against old. Both documents
// must be valid and share a scale; scenarios are matched by name, with
// old-only scenarios reported as removed and new-only as added.
func Compare(oldDoc, newDoc *Doc, th Thresholds) (*Comparison, error) {
	if err := oldDoc.Validate(); err != nil {
		return nil, err
	}
	if err := newDoc.Validate(); err != nil {
		return nil, err
	}
	if oldDoc.Scale != newDoc.Scale {
		return nil, fmt.Errorf("bench: cannot compare scale %q (%s) against scale %q (%s): fixture sizes differ",
			oldDoc.Scale, oldDoc.Label, newDoc.Scale, newDoc.Label)
	}
	if th.MinShift <= 0 {
		th.MinShift = DefaultThresholds().MinShift
	}
	if th.Alpha <= 0 {
		th.Alpha = DefaultThresholds().Alpha
	}
	oldByName := map[string]*ScenarioResult{}
	for i := range oldDoc.Scenarios {
		oldByName[oldDoc.Scenarios[i].Name] = &oldDoc.Scenarios[i]
	}
	c := &Comparison{OldLabel: oldDoc.Label, NewLabel: newDoc.Label, Th: th}
	seen := map[string]bool{}
	for i := range newDoc.Scenarios {
		ns := &newDoc.Scenarios[i]
		seen[ns.Name] = true
		prev, ok := oldByName[ns.Name]
		if !ok {
			c.Deltas = append(c.Deltas, Delta{
				Name: ns.Name, Class: ClassAdded, TimeClass: ClassAdded, AllocClass: ClassAdded,
				NewMedianNs: stats.Median(ns.NsPerOp), NewAllocs: stats.Median(ns.AllocsPerOp),
				Ratio: math.NaN(), P: 1, AllocRatio: math.NaN(), AllocP: 1,
			})
			continue
		}
		d := Delta{Name: ns.Name}
		d.TimeClass, d.Ratio, d.P = classify(prev.NsPerOp, ns.NsPerOp, th, 0)
		d.OldMedianNs, d.NewMedianNs = stats.Median(prev.NsPerOp), stats.Median(ns.NsPerOp)
		d.AllocClass, d.AllocRatio, d.AllocP = classify(prev.AllocsPerOp, ns.AllocsPerOp, th, allocFloorFor(ns.Name))
		d.OldAllocs, d.NewAllocs = stats.Median(prev.AllocsPerOp), stats.Median(ns.AllocsPerOp)
		d.Class = d.TimeClass
		if th.GateAllocs && d.AllocClass == ClassRegressed {
			d.Class = ClassRegressed
		}
		c.Deltas = append(c.Deltas, d)
	}
	for i := range oldDoc.Scenarios {
		prev := &oldDoc.Scenarios[i]
		if !seen[prev.Name] {
			c.Deltas = append(c.Deltas, Delta{
				Name: prev.Name, Class: ClassRemoved, TimeClass: ClassRemoved, AllocClass: ClassRemoved,
				OldMedianNs: stats.Median(prev.NsPerOp), OldAllocs: stats.Median(prev.AllocsPerOp),
				Ratio: math.NaN(), P: 1, AllocRatio: math.NaN(), AllocP: 1,
			})
		}
	}
	return c, nil
}

// classify runs the two-pronged test on one sample column. floor, when
// positive, declares shifts irrelevant while both medians sit below it
// (used for alloc counts; timings pass 0).
func classify(oldS, newS []float64, th Thresholds, floor float64) (Class, float64, float64) {
	om, nm := stats.Median(oldS), stats.Median(newS)
	if floor > 0 && om < floor && nm < floor {
		return ClassUnchanged, ratioOf(om, nm), 1
	}
	ratio := ratioOf(om, nm)
	_, p := stats.MannWhitney(oldS, newS)
	switch {
	case p < th.Alpha && ratio > 1+th.MinShift:
		return ClassRegressed, ratio, p
	case p < th.Alpha && ratio < 1/(1+th.MinShift):
		return ClassImproved, ratio, p
	}
	return ClassUnchanged, ratio, p
}

// ratioOf guards the new/old median ratio against zero denominators.
func ratioOf(om, nm float64) float64 {
	switch {
	//lint:ignore floatcompare guarding exact zero medians, not near-equality
	case om == 0 && nm == 0:
		return 1
	//lint:ignore floatcompare guarding an exact zero denominator
	case om == 0:
		return math.Inf(1)
	}
	return nm / om
}

// Regressions returns the gating deltas (Class == regressed).
func (c *Comparison) Regressions() []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.Class == ClassRegressed {
			out = append(out, d)
		}
	}
	return out
}

// WriteText renders the comparison as an aligned table followed by a
// one-line summary.
func (c *Comparison) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "comparing %s -> %s (shift > %.0f%%, alpha %g",
		c.OldLabel, c.NewLabel, 100*c.Th.MinShift, c.Th.Alpha); err != nil {
		return err
	}
	if c.Th.GateAllocs {
		if _, err := fmt.Fprint(w, ", allocs gated"); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, ")"); err != nil {
		return err
	}
	counts := map[Class]int{}
	for _, d := range c.Deltas {
		counts[d.Class]++
		var err error
		switch d.Class {
		case ClassAdded:
			_, err = fmt.Fprintf(w, "  %-28s %-10s %14s -> %11.3fms\n", d.Name, d.Class, "(none)", d.NewMedianNs/1e6)
		case ClassRemoved:
			_, err = fmt.Fprintf(w, "  %-28s %-10s %11.3fms -> %14s\n", d.Name, d.Class, d.OldMedianNs/1e6, "(none)")
		default:
			_, err = fmt.Fprintf(w, "  %-28s %-10s %11.3fms -> %11.3fms  x%-6.3f p=%-8.3g allocs x%.3f\n",
				d.Name, d.Class, d.OldMedianNs/1e6, d.NewMedianNs/1e6, d.Ratio, d.P, d.AllocRatio)
		}
		if err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "verdict: %d improved, %d regressed, %d unchanged, %d added, %d removed\n",
		counts[ClassImproved], counts[ClassRegressed], counts[ClassUnchanged], counts[ClassAdded], counts[ClassRemoved])
	return err
}
