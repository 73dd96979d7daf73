package workload

import (
	"bytes"
	"encoding/csv"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// referenceTrace is the VM-major layout Trace used before its tiles: one
// slice of samples per VM.
type referenceTrace struct {
	StepSeconds float64
	Names       []string
	Sectors     []Sector
	Series      [][]float64 // [vm][step]
}

// referenceGenerate is Generate as it was written for the VM-major layout,
// kept as the oracle the tiled Generate must match bit for bit.
func referenceGenerate(cfg GenConfig) *referenceTrace {
	rng := rand.New(rand.NewSource(cfg.Seed))
	steps := cfg.Days * 24 * cfg.StepsPerHour
	tr := &referenceTrace{
		StepSeconds: 3600 / float64(cfg.StepsPerHour),
		Names:       make([]string, cfg.NumVMs),
		Sectors:     make([]Sector, cfg.NumVMs),
		Series:      make([][]float64, cfg.NumVMs),
	}
	for i := 0; i < cfg.NumVMs; i++ {
		sector := Sector(rng.Intn(int(numSectors)))
		tr.Names[i] = fmt.Sprintf("vm-%s-%05d", sector, i)
		tr.Sectors[i] = sector
		scale := 0.3 + 0.45*rng.Float64()
		phase := (rng.Float64() - 0.5) * 2.0
		noiseAmp := 0.03 + 0.05*rng.Float64()
		burstRate := 0.002 + 0.002*rng.Float64()
		series := make([]float64, steps)
		noise := 0.0
		burstLeft, burstLevel := 0, 0.0
		for k := 0; k < steps; k++ {
			hourOfWeek := float64(k) / float64(cfg.StepsPerHour)
			day := int(hourOfWeek/24) % 7
			hour := math.Mod(hourOfWeek+phase+24, 24)
			base := sectorShape(sector, hour, day) * scale
			noise = 0.85*noise + noiseAmp*rng.NormFloat64()
			if burstLeft == 0 && rng.Float64() < burstRate {
				burstLeft = 2 + rng.Intn(8)
				burstLevel = 0.2 + 0.4*rng.Float64()
			}
			burst := 0.0
			if burstLeft > 0 {
				burst = burstLevel
				burstLeft--
			}
			series[k] = clamp01(base + noise + burst)
			if series[k] < 0.01 {
				series[k] = 0.01
			}
		}
		tr.Series[i] = series
	}
	return tr
}

// requireSameTrace fails unless tr holds exactly ref's first n VMs.
func requireSameTrace(t *testing.T, tr *Trace, ref *referenceTrace, n int) {
	t.Helper()
	if tr.NumVMs() != n || tr.NumSteps() != len(ref.Series[0]) || tr.StepSeconds != ref.StepSeconds {
		t.Fatalf("trace is %d VMs × %d steps at %v s, want %d × %d at %v s",
			tr.NumVMs(), tr.NumSteps(), tr.StepSeconds, n, len(ref.Series[0]), ref.StepSeconds)
	}
	for i := 0; i < n; i++ {
		if tr.Names[i] != ref.Names[i] || tr.Sectors[i] != ref.Sectors[i] {
			t.Fatalf("VM %d is %q/%v, want %q/%v", i, tr.Names[i], tr.Sectors[i], ref.Names[i], ref.Sectors[i])
		}
		for k, u := range ref.Series[i] {
			if got := tr.At(i, k); math.Float64bits(got) != math.Float64bits(u) {
				t.Fatalf("VM %d step %d = %v, want %v", i, k, got, u)
			}
		}
	}
}

// TestGenerateMatchesVMMajorReference: every sample of the tiled trace is
// the reference generator's, bit for bit, at sizes on both sides of a tile
// boundary, and Slice keeps them at sizes that split a tile.
func TestGenerateMatchesVMMajorReference(t *testing.T) {
	for _, n := range []int{1, 255, 256, 257, 2000} {
		cfg := GenConfig{NumVMs: n, Days: 2, StepsPerHour: 2, Seed: int64(n)}
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceGenerate(cfg)
		requireSameTrace(t, tr, ref, n)
		for _, m := range []int{1, 100, 255, 257, 511, 513, 1999} {
			if m > n {
				continue
			}
			sub, err := tr.Slice(m)
			if err != nil {
				t.Fatal(err)
			}
			requireSameTrace(t, sub, ref, m)
		}
	}
}

// referenceWriteCSV is WriteCSV as it was written for the VM-major layout.
func referenceWriteCSV(tr *referenceTrace) []byte {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	_ = cw.Write([]string{"step_seconds", strconv.FormatFloat(tr.StepSeconds, 'g', -1, 64)})
	for i, series := range tr.Series {
		row := []string{tr.Names[i], strconv.Itoa(int(tr.Sectors[i]))}
		for _, u := range series {
			row = append(row, strconv.FormatFloat(u, 'g', 6, 64))
		}
		_ = cw.Write(row)
	}
	cw.Flush()
	return buf.Bytes()
}

// encodeRows gob-encodes per-VM rows through the one wire type.
func encodeRows(t *testing.T, rows gobRows) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(gobWire(&rows)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCodecsMatchVMMajorReference: over several tiles, both writers emit
// the bytes of the reference rows and both readers recover the samples.
// The golden files pin the wire type's own bytes.
func TestCodecsMatchVMMajorReference(t *testing.T) {
	cfg := GenConfig{NumVMs: 300, Days: 1, StepsPerHour: 2, Seed: 11}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceGenerate(cfg)
	var csvBuf, gobBuf bytes.Buffer
	if err := tr.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteGob(&gobBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvBuf.Bytes(), referenceWriteCSV(ref)) {
		t.Fatal("WriteCSV differs from the VM-major writer")
	}
	if !bytes.Equal(gobBuf.Bytes(), encodeRows(t, gobRows(*ref))) {
		t.Fatal("WriteGob differs from the VM-major rows' encoding")
	}
	back, err := ReadGob(&gobBuf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameTrace(t, back, ref, cfg.NumVMs)
	fromCSV, err := ReadCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	if fromCSV.NumVMs() != cfg.NumVMs {
		t.Fatalf("CSV decoded %d VMs, want %d", fromCSV.NumVMs(), cfg.NumVMs)
	}
}

// TestAggregateUtilizationMatchesVMMajorSum: the per-step mean adds VMs in
// index order, as the VM-major sum did, so it is bit-identical.
func TestAggregateUtilizationMatchesVMMajorSum(t *testing.T) {
	cfg := GenConfig{NumVMs: 600, Days: 1, StepsPerHour: 4, Seed: 5}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceGenerate(cfg)
	want := make([]float64, tr.NumSteps())
	for _, series := range ref.Series {
		for k, u := range series {
			want[k] += u
		}
	}
	for k, got := range tr.AggregateUtilization() {
		if w := want[k] / float64(cfg.NumVMs); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("step %d: aggregate %v, want %v", k, got, w)
		}
	}
}

// TestFromRowsRejectsRaggedAndOutOfRange: FromRows names the first
// offending VM with a typed error, and ReadGob reports the same errors for
// a decoded file.
func TestFromRowsRejectsRaggedAndOutOfRange(t *testing.T) {
	names := []string{"a", "b", "c"}
	sectors := []Sector{Telecom, Retail, Financial}
	cases := []struct {
		series [][]float64
		check  func(error) bool
	}{
		{[][]float64{{0.1, 0.2}, {0.3}, {0.4, 0.5}}, func(err error) bool {
			var se *ShapeError
			return errors.As(err, &se) && se.VM == "b" && se.Got == 1 && se.Want == 2
		}},
		{[][]float64{{0.1, 0.2}, {0.3, 0.4}, {0.5, 1.5}}, func(err error) bool {
			var se *SampleError
			return errors.As(err, &se) && se.VM == "c" && se.Index == 1
		}},
		{[][]float64{{math.NaN()}, {0.1}, {0.2}}, func(err error) bool {
			var se *SampleError
			return errors.As(err, &se) && se.VM == "a" && se.Index == 0
		}},
	}
	for i, c := range cases {
		if _, err := FromRows(900, names, sectors, c.series); !c.check(err) {
			t.Fatalf("case %d: FromRows returned %v", i, err)
		}
		enc := encodeRows(t, gobRows{StepSeconds: 900, Names: names, Sectors: sectors, Series: c.series})
		if _, err := ReadGob(bytes.NewReader(enc)); !c.check(err) {
			t.Fatalf("case %d: ReadGob returned %v", i, err)
		}
	}
	if _, err := FromRows(900, names[:2], sectors, [][]float64{{0.1}, {0.2}, {0.3}}); err == nil {
		t.Fatal("fewer names than VMs accepted")
	}
	if _, err := FromRows(0, names, sectors, [][]float64{{0.1}, {0.2}, {0.3}}); err == nil {
		t.Fatal("zero step accepted")
	}
}
