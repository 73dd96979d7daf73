package workload

import (
	"bytes"
	"math"
	"testing"
)

func smallConfig() GenConfig {
	return GenConfig{NumVMs: 40, Days: 7, StepsPerHour: 4, Seed: 1}
}

func TestGenerateDimensions(t *testing.T) {
	tr, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumVMs() != 40 {
		t.Fatalf("NumVMs = %d", tr.NumVMs())
	}
	if tr.NumSteps() != 7*24*4 {
		t.Fatalf("NumSteps = %d, want 672", tr.NumSteps())
	}
	if tr.StepSeconds != 900 {
		t.Fatalf("StepSeconds = %v, want 900", tr.StepSeconds)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.NumVMs(); i++ {
		for k := 0; k < a.NumSteps(); k++ {
			if a.At(i, k) != b.At(i, k) {
				t.Fatalf("nondeterministic at vm %d step %d", i, k)
			}
		}
	}
}

func TestGenerateSeedChangesOutput(t *testing.T) {
	a, _ := Generate(smallConfig())
	cfg := smallConfig()
	cfg.Seed = 99
	b, _ := Generate(cfg)
	same := true
	for k := 0; k < a.NumSteps(); k++ {
		if a.At(0, k) != b.At(0, k) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical series")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	for _, cfg := range []GenConfig{
		{NumVMs: 0, Days: 1, StepsPerHour: 4},
		{NumVMs: 1, Days: 0, StepsPerHour: 4},
		{NumVMs: 1, Days: 1, StepsPerHour: 0},
	} {
		if _, err := Generate(cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

func TestFinancialSectorWeekdayWeekendContrast(t *testing.T) {
	// Financial load during weekday business hours must clearly exceed
	// weekend load at the same hour — the diurnal/weekly structure the
	// consolidation algorithms exploit.
	cfg := GenConfig{NumVMs: 200, Days: 7, StepsPerHour: 4, Seed: 3}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var weekday, weekend float64
	var nd, ne int
	for i := 0; i < tr.NumVMs(); i++ {
		if tr.Sectors[i] != Financial {
			continue
		}
		for k := 0; k < tr.NumSteps(); k++ {
			hourOfWeek := float64(k) / 4
			day := int(hourOfWeek/24) % 7
			hour := math.Mod(hourOfWeek, 24)
			if hour < 10 || hour >= 16 {
				continue
			}
			if day < 5 {
				weekday += tr.At(i, k)
				nd++
			} else {
				weekend += tr.At(i, k)
				ne++
			}
		}
	}
	if nd == 0 || ne == 0 {
		t.Fatal("no financial VMs sampled")
	}
	weekday /= float64(nd)
	weekend /= float64(ne)
	if weekday < weekend*1.5 {
		t.Fatalf("weekday %v vs weekend %v: no business-hours contrast", weekday, weekend)
	}
}

func TestSectorString(t *testing.T) {
	for s := Manufacturing; s < numSectors; s++ {
		if s.String() == "" {
			t.Fatalf("sector %d has empty name", s)
		}
	}
	if Sector(99).String() == "" {
		t.Fatal("unknown sector must still render")
	}
}

func TestSlice(t *testing.T) {
	tr, _ := Generate(smallConfig())
	sub, err := tr.Slice(10)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumVMs() != 10 || sub.NumSteps() != tr.NumSteps() {
		t.Fatalf("slice dims %d/%d", sub.NumVMs(), sub.NumSteps())
	}
	if _, err := tr.Slice(0); err == nil {
		t.Fatal("slice 0 accepted")
	}
	if _, err := tr.Slice(41); err == nil {
		t.Fatal("oversized slice accepted")
	}
}

func TestMeanUtilizationInRange(t *testing.T) {
	tr, _ := Generate(smallConfig())
	for i := 0; i < tr.NumVMs(); i++ {
		m := tr.MeanUtilization(i)
		if m <= 0 || m >= 1 {
			t.Fatalf("vm %d mean %v outside (0,1)", i, m)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr, _ := Generate(smallConfig())
	tr.tiles[0][5<<tileShift|3] = 1.5
	if err := tr.Validate(); err == nil {
		t.Fatal("out-of-range value not caught")
	}
	tr, _ = Generate(smallConfig())
	tr.Names = tr.Names[:5]
	if err := tr.Validate(); err == nil {
		t.Fatal("name mismatch not caught")
	}
	tr, _ = Generate(smallConfig())
	tr.StepSeconds = 0
	if err := tr.Validate(); err == nil {
		t.Fatal("zero step not caught")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	cfg := smallConfig()
	cfg.NumVMs = 5
	cfg.Days = 1
	tr, _ := Generate(cfg)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVMs() != tr.NumVMs() || back.NumSteps() != tr.NumSteps() {
		t.Fatalf("dims changed: %d/%d", back.NumVMs(), back.NumSteps())
	}
	if back.StepSeconds != tr.StepSeconds {
		t.Fatal("step changed")
	}
	for i := 0; i < tr.NumVMs(); i++ {
		if back.Names[i] != tr.Names[i] || back.Sectors[i] != tr.Sectors[i] {
			t.Fatalf("metadata changed for vm %d", i)
		}
		for k := 0; k < tr.NumSteps(); k++ {
			if math.Abs(back.At(i, k)-tr.At(i, k)) > 1e-6 {
				t.Fatalf("value drift at %d/%d", i, k)
			}
		}
	}
}

func TestCSVRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"",
		"not,a,trace\n",
		"step_seconds,abc\n",
		"step_seconds,900\nvm0,notanint,0.5\n",
		"step_seconds,900\nvm0,0,xyz\n",
		"step_seconds,900\nvm0,0\n", // too short
	} {
		if _, err := ReadCSV(bytes.NewReader([]byte(s))); err == nil {
			t.Fatalf("accepted garbage %q", s)
		}
	}
}

func TestGobRoundTrip(t *testing.T) {
	cfg := smallConfig()
	cfg.NumVMs = 8
	tr, _ := Generate(cfg)
	var buf bytes.Buffer
	if err := tr.WriteGob(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGob(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVMs() != 8 || back.NumSteps() != tr.NumSteps() {
		t.Fatal("gob round trip changed dims")
	}
	for k := 0; k < tr.NumSteps(); k++ {
		if back.At(2, k) != tr.At(2, k) {
			t.Fatal("gob round trip changed values")
		}
	}
}

func TestGobRejectsGarbage(t *testing.T) {
	if _, err := ReadGob(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("accepted garbage gob")
	}
}

func BenchmarkGenerate500VMs(b *testing.B) {
	cfg := GenConfig{NumVMs: 500, Days: 7, StepsPerHour: 4, Seed: 5}
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
