package dcsim

import (
	"sync/atomic"
	"testing"

	"vdcpower/internal/obs"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/packing"
)

// TestFig6ParallelMatchesSerial is the determinism regression gate: the
// parallel sweep must reproduce the serial sweep bit-for-bit from the
// same seed at every worker count — worker scheduling must not leak into
// results (see the vdclint determinism rule).
func TestFig6ParallelMatchesSerial(t *testing.T) {
	tr := testTrace(t)
	sizes := []int{30, 60, 90}
	policies := []func() optimizer.Consolidator{
		func() optimizer.Consolidator { return optimizer.NewIPAC() },
		func() optimizer.Consolidator { return optimizer.NewPMapper() },
	}
	serial, err := Fig6(tr, sizes, policies)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 4, 8} {
		parallel, err := Fig6Sweep(tr, sizes, policies, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(parallel) != len(serial) {
			t.Fatalf("workers=%d: lengths differ: %d vs %d", workers, len(parallel), len(serial))
		}
		for i := range serial {
			if parallel[i].NumVMs != serial[i].NumVMs {
				t.Fatalf("workers=%d: size order changed at %d", workers, i)
			}
			if len(parallel[i].PerVMWh) != len(serial[i].PerVMWh) {
				t.Fatalf("workers=%d size %d: policy sets differ: %v vs %v",
					workers, serial[i].NumVMs, parallel[i].PerVMWh, serial[i].PerVMWh)
			}
			for name, v := range serial[i].PerVMWh {
				// Bit-for-bit: any drift here means scheduling leaked
				// into the floating-point result.
				//lint:ignore floatcompare the regression gate asserts exact reproducibility
				if parallel[i].PerVMWh[name] != v {
					t.Fatalf("workers=%d size %d policy %s: %v != %v",
						workers, serial[i].NumVMs, name, parallel[i].PerVMWh[name], v)
				}
			}
		}
	}
}

func TestFig6ParallelDefaultWorkers(t *testing.T) {
	tr := testTrace(t)
	points, err := Fig6Sweep(tr, []int{40}, []func() optimizer.Consolidator{
		func() optimizer.Consolidator { return optimizer.NewIPAC() },
	}, SweepOptions{}) // 0 workers → GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].PerVMWh["IPAC"] <= 0 {
		t.Fatalf("bad points %+v", points)
	}
}

func TestFig6ParallelPropagatesErrors(t *testing.T) {
	tr := testTrace(t)
	_, err := Fig6Sweep(tr, []int{99999}, []func() optimizer.Consolidator{
		func() optimizer.Consolidator { return optimizer.NewIPAC() },
	}, SweepOptions{Workers: 2})
	if err == nil {
		t.Fatal("oversized slice did not error")
	}
}

// countingIPAC counts the reads of its search effort.
type countingIPAC struct {
	*optimizer.IPAC
	reads *atomic.Int64
}

func (c countingIPAC) SearchStats() *packing.SearchStats {
	c.reads.Add(1)
	return c.IPAC.SearchStats()
}

// TestSweepProbesOnlyObservedRuns: a probe reads the search effort before
// and after every consolidation pass, and an unprobed run never does. A
// sweep without a scorecard must build no probe — a nil scorecard held
// in a probe.Subscriber would be a live subscriber.
func TestSweepProbesOnlyObservedRuns(t *testing.T) {
	tr := testTrace(t)
	for _, observed := range []bool{false, true} {
		var reads atomic.Int64
		policies := []func() optimizer.Consolidator{func() optimizer.Consolidator {
			return countingIPAC{IPAC: optimizer.NewIPAC(), reads: &reads}
		}}
		var opt SweepOptions
		if observed {
			opt.Obs = obs.New(obs.Config{})
		}
		if _, err := Fig6Sweep(tr, []int{40}, policies, opt); err != nil {
			t.Fatal(err)
		}
		var want int64
		if observed {
			want = 2 * int64(opt.Obs.Report().Optimizer.Passes)
			if want == 0 {
				t.Fatal("the observed sweep scored no consolidation pass")
			}
		}
		if got := reads.Load(); got != want {
			t.Errorf("observed %t: %d search-effort reads, want %d", observed, got, want)
		}
	}
}
