package dcsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"vdcpower/internal/optimizer"
	"vdcpower/internal/packing"
	"vdcpower/internal/workload"
)

// TestMinimumSlackCountsPinnedOverRuns runs IPAC through whole seeded
// runs and requires, per seed, the recorded result, an FNV-64a digest of
// the per-step power bits and the recorded search counts, which a search
// counting every node on its own also gives. The runs must widen ε and
// exhaust the doubled budget, where the bulk counts have to be exact.
func TestMinimumSlackCountsPinnedOverRuns(t *testing.T) {
	pinned := []struct {
		seed   int64
		res    Result
		digest uint64
		stats  packing.SearchStats
	}{
		{3, Result{Policy: "IPAC", NumVMs: 600, NumServers: 3000, Steps: 288,
			TotalEnergyWh: 617928.89942288, EnergyPerVMWh: 1029.8814990381334, Migrations: 594,
			MeanActive: 41.5, FinalActive: 39, OverloadSteps: 1950},
			0xfb75a9594a101a78, packing.SearchStats{Calls: 2190, Nodes: 561708, Widenings: 12, Exhausted: 12}},
		{4, Result{Policy: "IPAC", NumVMs: 600, NumServers: 3000, Steps: 288,
			TotalEnergyWh: 613259.2605880919, EnergyPerVMWh: 1022.0987676468199, Migrations: 614,
			MeanActive: 41.5, FinalActive: 38, OverloadSteps: 1911},
			0x80e857f117323035, packing.SearchStats{Calls: 2175, Nodes: 558832, Widenings: 13, Exhausted: 11}},
	}
	var total packing.SearchStats
	for _, p := range pinned {
		tr, err := workload.Generate(workload.GenConfig{NumVMs: 600, Days: 3, StepsPerHour: 4, Seed: p.seed})
		if err != nil {
			t.Fatal(err)
		}
		ipac := optimizer.NewIPAC()
		cfg := DefaultConfig(tr, 600, ipac)
		h := fnv.New64a()
		cfg.OnStep = func(_ int, w float64, _ int, _ float64) {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(w)))
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, p.res) {
			t.Fatalf("seed %d: result %#v, recorded %#v", p.seed, res, p.res)
		}
		if d := h.Sum64(); d != p.digest {
			t.Fatalf("seed %d: per-step power digest %#x, recorded %#x", p.seed, d, p.digest)
		}
		st := *ipac.SearchStats()
		if st != p.stats {
			t.Fatalf("seed %d: search counted %+v, recorded %+v", p.seed, st, p.stats)
		}
		total.Widenings += st.Widenings
		total.Exhausted += st.Exhausted
	}
	if total.Widenings == 0 || total.Exhausted == 0 {
		t.Fatalf("vacuous: the runs never widened or exhausted a search: %+v", total)
	}
}
