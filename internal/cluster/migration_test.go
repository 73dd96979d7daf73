package cluster

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultMigrationModelValid(t *testing.T) {
	if err := DefaultMigrationModel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationModelValidate(t *testing.T) {
	cases := map[string]MigrationModel{
		"zero bandwidth": {BandwidthGbps: 0, DirtyFraction: 0.1, Passes: 2},
		"dirty >= 1":     {BandwidthGbps: 1, DirtyFraction: 1.0, Passes: 2},
		"dirty < 0":      {BandwidthGbps: 1, DirtyFraction: -0.1, Passes: 2},
		"no passes":      {BandwidthGbps: 1, DirtyFraction: 0.1, Passes: 0},
		"neg overhead":   {BandwidthGbps: 1, DirtyFraction: 0.1, Passes: 2, StopOverheadMS: -1},
	}
	for name, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestMigrationDurationKnownValue(t *testing.T) {
	// The stop-and-copy's known duration: an 8 GB VM over 1 Gbps
	// (= 0.125 GB/s), no redirtying, one pass: downtime = 0 residual +
	// 30 ms.
	m := MigrationModel{BandwidthGbps: 1, DirtyFraction: 0, Passes: 1, StopOverheadMS: 30}
	down := m.Downtime(8)
	if math.Abs(down-0.03) > 1e-12 {
		t.Fatalf("downtime = %v, want 0.03", down)
	}
}

func TestMigrationSecondsScale(t *testing.T) {
	// The paper's motivation: migrations take seconds to minutes, but the
	// service only stops for the final copy. With the default model a
	// 2 GB VM is down for well under a second.
	m := DefaultMigrationModel()
	down := m.Downtime(2)
	if down <= 0 || down > 1 {
		t.Fatalf("2 GB downtime %v s implausible", down)
	}
}

func TestMigrationZeroMemory(t *testing.T) {
	m := DefaultMigrationModel()
	if got := m.Downtime(0); math.Abs(got-0.03) > 1e-9 {
		t.Fatalf("zero-memory downtime = %v", got)
	}
}

// Properties: downtime increases with memory; more passes reduce it.
func TestMigrationModelProperties(t *testing.T) {
	f := func(rawMem float64) bool {
		mem := 0.1 + math.Mod(math.Abs(rawMem), 64)
		m := DefaultMigrationModel()
		if m.Downtime(mem) <= m.Downtime(mem/2) {
			return false
		}
		more := m
		more.Passes = m.Passes + 2
		return more.Downtime(mem) < m.Downtime(mem)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
