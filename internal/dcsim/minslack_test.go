package dcsim

import (
	"reflect"
	"slices"
	"testing"

	"vdcpower/internal/optimizer"
	"vdcpower/internal/packing"
	"vdcpower/internal/workload"
)

// genericVector is VectorConstraint under another type: Fits is
// promoted, so it admits exactly what VectorConstraint admits, but
// MinimumSlack runs its generic search for it.
type genericVector struct{ packing.VectorConstraint }

// TestVectorSearchMatchesGenericOverRuns runs IPAC through whole seeded
// runs twice, once with its VectorConstraint (the vector search, with
// its bulk node counts) and once with the same constraint under another
// type (the generic search), and requires the same result, the same
// power at every step and the same search counts. The runs must widen ε
// and exhaust the doubled budget, where the counts have to be exact.
func TestVectorSearchMatchesGenericOverRuns(t *testing.T) {
	var total packing.SearchStats
	for _, seed := range []int64{3, 4} {
		tr, err := workload.Generate(workload.GenConfig{NumVMs: 600, Days: 3, StepsPerHour: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		run := func(cons packing.Constraint) (Result, []float64, packing.SearchStats) {
			ipac := optimizer.NewIPAC()
			ipac.Constraint = cons
			cfg := DefaultConfig(tr, 600, ipac)
			var power []float64
			cfg.OnStep = func(_ int, w float64, _ int, _ float64) { power = append(power, w) }
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res, power, *ipac.SearchStats()
		}
		vc := optimizer.NewIPAC().Constraint.(packing.VectorConstraint)
		res, power, st := run(vc)
		gres, gpower, gst := run(genericVector{vc})
		if !reflect.DeepEqual(res, gres) {
			t.Fatalf("seed %d: vector search %+v, generic %+v", seed, res, gres)
		}
		if !slices.Equal(power, gpower) {
			t.Fatalf("seed %d: per-step power differs", seed)
		}
		if st != gst {
			t.Fatalf("seed %d: vector search counted %+v, generic %+v", seed, st, gst)
		}
		total.Calls += st.Calls
		total.Nodes += st.Nodes
		total.Widenings += st.Widenings
		total.Exhausted += st.Exhausted
	}
	t.Logf("searches: %+v", total)
	if total.Widenings == 0 || total.Exhausted == 0 {
		t.Fatalf("vacuous: the runs never widened or exhausted a search: %+v", total)
	}
}
