package trace

import (
	"bytes"
	"compress/gzip"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"vdcpower/internal/workload"
)

// sliceSource replays a fixed record slice as a Source.
type sliceSource struct {
	recs []Record
	i    int
}

func (s *sliceSource) Next() (Record, error) {
	if s.i >= len(s.recs) {
		return Record{}, io.EOF
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

func mustDrain(t *testing.T, src Source) []Record {
	t.Helper()
	out, err := drainAll(src)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return out
}

// --- adapters ---

func TestGoogleUsageDecodesSkipsAndClamps(t *testing.T) {
	in := "0,300000000,1,2,m1,0.25\n" +
		"300000000,600000000,1,2,m1,\n" + // empty usage: skipped
		"600000000,900000000,1,2,m1,1.75\n" // >100%: clamps to 1
	src, err := NewGoogleUsage(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	recs := mustDrain(t, src)
	want := []Record{
		{VM: "j1-t2", Time: 0, Util: 0.25},
		{VM: "j1-t2", Time: 600, Util: 1},
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}
	if src.Skipped() != 1 {
		t.Fatalf("Skipped() = %d, want 1", src.Skipped())
	}
}

func TestGoogleUsageRejectsMalformedRows(t *testing.T) {
	cases := map[string]string{
		"short row":       "1,2,3\n",
		"bad start":       "x,300000000,1,2,m1,0.5\n",
		"end before":      "600,300,1,2,m1,0.5\n",
		"empty job":       "0,300000000,,2,m1,0.5\n",
		"NaN usage":       "0,300000000,1,2,m1,NaN\n",
		"negative usage":  "0,300000000,1,2,m1,-0.5\n",
		"backwards times": "300000000,600000000,1,2,m1,0.5\n0,300000000,1,2,m1,0.5\n",
	}
	for name, in := range cases {
		src, err := NewGoogleUsage(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if _, err := drainAll(src); !IsRecordError(err) {
			t.Fatalf("%s: err = %v, want a *RecordError", name, err)
		}
	}
}

func TestAzureVMDecodesHeaderAndPercent(t *testing.T) {
	in := "timestamp,vm_id,min_cpu,max_cpu,avg_cpu\n" +
		"0,abc,10,90,50\n" +
		"300,abc,10,90,\n" + // empty avg: skipped
		"600,abc,10,90,75\n"
	src, err := NewAzureVM(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	recs := mustDrain(t, src)
	want := []Record{
		{VM: "az-abc", Time: 0, Util: 0.5},
		{VM: "az-abc", Time: 600, Util: 0.75},
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}
	if src.Skipped() != 1 {
		t.Fatalf("Skipped() = %d, want 1", src.Skipped())
	}
}

func TestAzureVMRejectsMalformedRows(t *testing.T) {
	cases := map[string]string{
		"short row":      "1,2\n",
		"bad timestamp":  "0,a,1,9,5\nx,a,1,9,5\n", // line 2: header tolerance is line 1 only
		"empty vm":       "0,,1,9,5\n",
		"negative avg":   "0,a,1,9,-5\n",
		"backwards time": "600,a,1,9,5\n300,a,1,9,5\n",
	}
	for name, in := range cases {
		src, err := NewAzureVM(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if _, err := drainAll(src); !IsRecordError(err) {
			t.Fatalf("%s: err = %v, want a *RecordError", name, err)
		}
	}
}

func TestGzipInputDecodesIdentically(t *testing.T) {
	var plain bytes.Buffer
	if _, err := WriteGoogleUsage(&plain, FabConfig{VMs: 3, Steps: 4, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	if _, err := zw.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	srcP, err := NewGoogleUsage(bytes.NewReader(plain.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	srcZ, err := NewGoogleUsage(bytes.NewReader(zipped.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rp, rz := mustDrain(t, srcP), mustDrain(t, srcZ)
	if len(rp) != len(rz) {
		t.Fatalf("plain %d records vs gzip %d", len(rp), len(rz))
	}
	for i := range rp {
		if rp[i] != rz[i] {
			t.Fatalf("record %d: plain %+v vs gzip %+v", i, rp[i], rz[i])
		}
	}
}

func TestLineBoundRejectsPathologicalLine(t *testing.T) {
	long := strings.Repeat("a", maxLineBytes+2)
	src, err := NewGoogleUsage(strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drainAll(src); err == nil {
		t.Fatal("a line beyond maxLineBytes decoded without error")
	}
}

// --- grid ---

func gridOver(t *testing.T, recs []Record, cfg GridConfig) ([]Record, error) {
	t.Helper()
	g, err := NewGrid(&sliceSource{recs: recs}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return drainAll(g)
}

func TestGridAveragesWithinStep(t *testing.T) {
	out, err := gridOver(t, []Record{
		{VM: "a", Time: 0, Util: 0.2},
		{VM: "a", Time: 300, Util: 0.4},
		{VM: "a", Time: 600, Util: 0.6},
		{VM: "a", Time: 900, Util: 1.0},
	}, GridConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{{VM: "a", Time: 0, Util: 0.4}, {VM: "a", Time: 900, Util: 1.0}}
	if len(out) != len(want) {
		t.Fatalf("got %d records %v, want %d", len(out), out, len(want))
	}
	for i := range want {
		if math.Abs(out[i].Util-want[i].Util) > 1e-12 || out[i].Time != want[i].Time || out[i].VM != want[i].VM {
			t.Fatalf("record %d = %+v, want %+v", i, out[i], want[i])
		}
	}
}

func TestGridGapPolicies(t *testing.T) {
	// VM a reports at steps 0 and 3: steps 1 and 2 are a gap.
	recs := []Record{
		{VM: "a", Time: 0, Util: 0.5},
		{VM: "a", Time: 2700, Util: 0.9},
	}
	hold, err := gridOver(t, recs, GridConfig{Gap: GapHold})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := gridOver(t, recs, GridConfig{Gap: GapZero})
	if err != nil {
		t.Fatal(err)
	}
	if len(hold) != 4 || len(zero) != 4 {
		t.Fatalf("hold %d records, zero %d, want 4 each", len(hold), len(zero))
	}
	if hold[1].Util != 0.5 || hold[2].Util != 0.5 {
		t.Fatalf("hold gap fill = %v, %v, want 0.5, 0.5", hold[1].Util, hold[2].Util)
	}
	if zero[1].Util != 0 || zero[2].Util != 0 {
		t.Fatalf("zero gap fill = %v, %v, want 0, 0", zero[1].Util, zero[2].Util)
	}
	if _, err := gridOver(t, recs, GridConfig{Gap: GapError}); !IsRecordError(err) {
		t.Fatalf("gap policy error: err = %v, want a *RecordError", err)
	}
}

func TestGridMaxGapStepsBound(t *testing.T) {
	recs := []Record{
		{VM: "a", Time: 0, Util: 0.5},
		{VM: "a", Time: 3600, Util: 0.5}, // 3-step gap
	}
	if _, err := gridOver(t, recs, GridConfig{MaxGapSteps: 2}); !IsRecordError(err) {
		t.Fatalf("gap beyond bound: err = %v, want a *RecordError", err)
	}
	if _, err := gridOver(t, recs, GridConfig{MaxGapSteps: 3}); err != nil {
		t.Fatalf("gap within bound rejected: %v", err)
	}
}

func TestGridRejectsBackwardsPerVMTime(t *testing.T) {
	recs := []Record{
		{VM: "a", Time: 1800, Util: 0.5},
		{VM: "a", Time: 0, Util: 0.5},
	}
	if _, err := gridOver(t, recs, GridConfig{}); !IsRecordError(err) {
		t.Fatalf("backwards per-VM time: err = %v, want a *RecordError", err)
	}
}

func TestGridMaxVMsBound(t *testing.T) {
	recs := []Record{
		{VM: "a", Time: 0, Util: 0.5},
		{VM: "b", Time: 0, Util: 0.5},
		{VM: "c", Time: 0, Util: 0.5},
	}
	if _, err := gridOver(t, recs, GridConfig{MaxVMs: 2}); err == nil {
		t.Fatal("third VM accepted past MaxVMs=2")
	}
}

// --- collector ---

func TestCollectorEdgeAlignment(t *testing.T) {
	// VM a covers steps [0,3), b covers [1,2): b needs lead+trail fill.
	recs := []Record{
		{VM: "a", Time: 0, Util: 0.1},
		{VM: "a", Time: 900, Util: 0.2},
		{VM: "b", Time: 900, Util: 0.8},
		{VM: "a", Time: 1800, Util: 0.3},
	}
	build := func(edge GapPolicy) (*workload.Trace, error) {
		return Collect(&sliceSource{recs: recs}, CollectConfig{Edge: edge})
	}
	hold, err := build(GapHold)
	if err != nil {
		t.Fatal(err)
	}
	row := func(tr *workload.Trace, vm int) []float64 {
		return []float64{tr.At(vm, 0), tr.At(vm, 1), tr.At(vm, 2)}
	}
	if got := row(hold, 1); got[0] != 0.8 || got[1] != 0.8 || got[2] != 0.8 {
		t.Fatalf("hold edge fill = %v, want [0.8 0.8 0.8]", got)
	}
	zero, err := build(GapZero)
	if err != nil {
		t.Fatal(err)
	}
	if got := row(zero, 1); got[0] != 0 || got[1] != 0.8 || got[2] != 0 {
		t.Fatalf("zero edge fill = %v, want [0 0.8 0]", got)
	}
	if _, err := build(GapError); err == nil {
		t.Fatal("ragged coverage accepted under the error edge policy")
	}
}

func TestCollectorRejectsOffGridAndNonConsecutive(t *testing.T) {
	for name, recs := range map[string][]Record{
		"off-grid time":        {{VM: "a", Time: 450, Util: 0.5}},
		"non-consecutive step": {{VM: "a", Time: 0, Util: 0.5}, {VM: "a", Time: 1800, Util: 0.5}},
	} {
		if _, err := Collect(&sliceSource{recs: recs}, CollectConfig{}); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	// The same records on consecutive grid steps collect.
	recs := []Record{{VM: "a", Time: 0, Util: 0.5}, {VM: "a", Time: 900, Util: 0.5}}
	if _, err := Collect(&sliceSource{recs: recs}, CollectConfig{}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorEmptySource(t *testing.T) {
	if _, err := Collect(&sliceSource{}, CollectConfig{}); err == nil {
		t.Fatal("empty source assembled into a trace")
	}
}

func TestAssignSectorDeterministicAndSalted(t *testing.T) {
	if AssignSector(1, "vm-a") != AssignSector(1, "vm-a") {
		t.Fatal("same salt, same VM → different sectors")
	}
	diff := false
	for v := 0; v < 64 && !diff; v++ {
		vm := "vm-" + string(rune('a'+v%26)) + string(rune('0'+v/26))
		diff = AssignSector(1, vm) != AssignSector(2, vm)
	}
	if !diff {
		t.Fatal("salts 1 and 2 agree on 64 VMs — the salt is inert")
	}
}

// --- distortions and replay determinism ---

func fabricatedGrid(t *testing.T, cfg FabConfig) Source {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteGoogleUsage(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	src, err := NewGoogleUsage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(src, GridConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func distortedPipeline() []Distortion {
	return []Distortion{
		FlashCrowd{StartStep: 2, Steps: 4, Amplify: 1.8, VMFraction: 0.5},
		BurstInject{Prob: 0.05, MinSteps: 1, MaxSteps: 3, MinLevel: 0.1, MaxLevel: 0.4},
		&TimeWarp{MaxLagSteps: 3},
	}
}

// replay pulls fabricated corpus rows through a distorted Stream.
func replay(t *testing.T, fab FabConfig, seed int64) ([]Record, *Provenance) {
	t.Helper()
	st := NewStream(fabricatedGrid(t, fab), ReplayConfig{Seed: seed, Distortions: distortedPipeline()})
	return mustDrain(t, st), st.Provenance()
}

func TestReplaySameSeedByteIdentical(t *testing.T) {
	fab := FabConfig{VMs: 12, Steps: 10, Seed: 7, GapProb: 0.05, EmptyProb: 0.05}
	a, sa := replay(t, fab, 42)
	b, sb := replay(t, fab, 42)
	if len(a) != len(b) {
		t.Fatalf("replays differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d: %+v vs %+v — same-seed replay is not byte-identical", i, a[i], b[i])
		}
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("provenance diverges: %+v vs %+v", sa, sb)
	}
	if sa.Records != len(a) || sa.Distorted == 0 {
		t.Fatalf("provenance %+v for %d records: the count is wrong or the test is vacuous", sa, len(a))
	}
}

// A provenance is a snapshot the caller owns: later reads do not move it.
func TestStreamProvenanceIsASnapshot(t *testing.T) {
	st := NewStream(fabricatedGrid(t, FabConfig{VMs: 12, Steps: 10, Seed: 7}),
		ReplayConfig{Seed: 42, Distortions: distortedPipeline()})
	before := st.Provenance()
	recs := mustDrain(t, st)
	for _, d := range before.Distortions {
		if before.Records != 0 || before.Distorted != 0 || d.Distorted != 0 {
			t.Fatalf("a provenance taken before any read moved with the stream: %+v", before)
		}
	}
	if after := st.Provenance(); after.Records != len(recs) || after.Distorted == 0 {
		t.Fatalf("final provenance %+v for %d records", after, len(recs))
	}
	if (*Provenance)(nil).Clone() != nil {
		t.Fatal("a nil provenance cloned to non-nil")
	}
}

func TestReplayDifferentSeedDiffers(t *testing.T) {
	fab := FabConfig{VMs: 12, Steps: 10, Seed: 7}
	mass := func(seed int64) float64 {
		recs, _ := replay(t, fab, seed)
		m := 0.0
		for _, r := range recs {
			m += r.Util
		}
		return m
	}
	if mass(1) == mass(2) {
		t.Fatal("seeds 1 and 2 produced identical distorted mass — the seed is inert")
	}
}

func TestReplaySpeedupPreservesOrderAndContent(t *testing.T) {
	fab := FabConfig{VMs: 4, Steps: 4, Seed: 7}
	unpaced, _ := replay(t, fab, 42)
	// 3 inter-step intervals of 900 s at 90000x → ≥ 30 ms of pacing.
	start := time.Now()
	st := NewStream(fabricatedGrid(t, fab), ReplayConfig{Seed: 42, Distortions: distortedPipeline()})
	p := NewPacer(90000)
	var paced []Record
	for {
		rec, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		p.Wait(rec.Time)
		paced = append(paced, rec)
	}
	elapsed := time.Since(start)
	if len(unpaced) != len(paced) {
		t.Fatalf("pacing changed the record count: %d vs %d", len(unpaced), len(paced))
	}
	for i := range unpaced {
		if unpaced[i] != paced[i] {
			t.Fatalf("record %d: pacing changed content: %+v vs %+v", i, unpaced[i], paced[i])
		}
	}
	if elapsed < 25*time.Millisecond {
		t.Fatalf("paced replay finished in %v — the pacer never waited", elapsed)
	}
}

func TestTimeWarpShiftsPhase(t *testing.T) {
	// Find a VM whose hashed lag is nonzero, then check its warped
	// series is the original shifted with the first value held.
	const seed, maxLag = 5, 3
	vm := ""
	lag := 0
	for v := 0; v < 32 && lag == 0; v++ {
		name := "vm-" + string(rune('a'+v))
		if l := int(hashUnit(seed, "time-warp", name, 0) * float64(maxLag+1)); l > 0 {
			vm, lag = name, l
		}
	}
	if lag == 0 {
		t.Fatal("no VM drew a nonzero lag in 32 tries")
	}
	w := &TimeWarp{MaxLagSteps: maxLag}
	orig := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	for k, u := range orig {
		rec, touched := w.Apply(seed, k, Record{VM: vm, Time: float64(k) * 900, Util: u})
		if !touched {
			t.Fatalf("step %d not touched despite lag %d", k, lag)
		}
		want := orig[0]
		if k >= lag {
			want = orig[k-lag]
		}
		if rec.Util != want {
			t.Fatalf("step %d: warped util %v, want %v (lag %d)", k, rec.Util, want, lag)
		}
	}
}

func TestFlashCrowdWindowAndFraction(t *testing.T) {
	f := FlashCrowd{StartStep: 2, Steps: 2, Amplify: 2, VMFraction: 1}
	if _, touched := f.Apply(1, 1, Record{VM: "a", Util: 0.3}); touched {
		t.Fatal("step before the window amplified")
	}
	rec, touched := f.Apply(1, 2, Record{VM: "a", Util: 0.3})
	if !touched || math.Abs(rec.Util-0.6) > 1e-12 {
		t.Fatalf("in-window apply: touched=%v util=%v, want 0.6", touched, rec.Util)
	}
	if _, touched := f.Apply(1, 4, Record{VM: "a", Util: 0.3}); touched {
		t.Fatal("step after the window amplified")
	}
	none := FlashCrowd{StartStep: 0, Steps: 8, Amplify: 2, VMFraction: 1e-12}
	if _, touched := none.Apply(1, 1, Record{VM: "a", Util: 0.3}); touched {
		t.Fatal("VMFraction ~0 still caught a VM")
	}
}

// --- spec ---

func TestParseSpecRejectsUnknownFieldsAndBadKinds(t *testing.T) {
	for name, in := range map[string]string{
		"unknown field":  `{"format":"synthetic","synthetic":{"vms":4},"typo":1}`,
		"unknown format": `{"format":"csv"}`,
		"missing path":   `{"format":"google-usage"}`,
		"bad distortion": `{"format":"synthetic","synthetic":{"vms":4},"distortions":[{"kind":"flash-crowd"}]}`,
		"unknown kind":   `{"format":"synthetic","synthetic":{"vms":4},"distortions":[{"kind":"meteor"}]}`,
		"bad gap":        `{"format":"synthetic","synthetic":{"vms":4},"grid":{"gap":"interpolate"}}`,
		"bad speedup":    `{"format":"synthetic","synthetic":{"vms":4},"speedup":-1}`,
	} {
		if _, err := ParseSpec(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestSpecBuildDeterministicEndToEnd(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "corpus.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteGoogleUsage(f, FabConfig{VMs: 8, Steps: 6, Seed: 3, GapProb: 0.05}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	spec := `{"format":"google-usage","path":"corpus.csv","seed":11,
		"distortions":[{"kind":"flash-crowd","start_step":1,"steps":3,"amplify":1.5,"vm_fraction":0.5},
		               {"kind":"sector-remix","salt":99}]}`
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	build := func() ([]byte, *Provenance) {
		sp, err := LoadSpec(specPath)
		if err != nil {
			t.Fatal(err)
		}
		tr, prov, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), prov
	}
	a, pa := build()
	b, pb := build()
	if !bytes.Equal(a, b) {
		t.Fatal("same spec, same corpus → different trace bytes")
	}
	if pa.Distorted == 0 {
		t.Fatal("provenance reports zero distorted records under a flash crowd")
	}
	if !reflect.DeepEqual(pa, pb) {
		t.Fatalf("provenance diverges: %+v vs %+v", pa, pb)
	}
	if pa.Source != "google-usage:corpus.csv" || pa.Seed != 11 {
		t.Fatalf("provenance names %q seed %d, want the spec's google-usage:corpus.csv seed 11", pa.Source, pa.Seed)
	}
	// The sector-remix salt overrides the seed-derived assignment.
	sp, err := LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.SectorSalt(); got != 99 {
		t.Fatalf("SectorSalt() = %d, want the remix salt 99", got)
	}
}

func TestSpecSyntheticBuild(t *testing.T) {
	sp, err := ParseSpec(strings.NewReader(`{"format":"synthetic","seed":5,"synthetic":{"vms":6,"seed":5}}`))
	if err != nil {
		t.Fatal(err)
	}
	tr, prov, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumVMs() != 6 {
		t.Fatalf("synthetic build: %d VMs, want 6", tr.NumVMs())
	}
	if prov.Records != tr.NumVMs()*tr.NumSteps() {
		t.Fatalf("provenance records %d, want %d", prov.Records, tr.NumVMs()*tr.NumSteps())
	}
}

// --- fabricator ---

func TestFabricatorDeterministic(t *testing.T) {
	gen := func() []byte {
		var buf bytes.Buffer
		if _, err := WriteAzureVM(&buf, FabConfig{VMs: 5, Steps: 6, Seed: 13, GapProb: 0.1, EmptyProb: 0.1}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(gen(), gen()) {
		t.Fatal("same FabConfig produced different corpus bytes")
	}
}

func TestFabricatedCorporaRoundTrip(t *testing.T) {
	fab := FabConfig{VMs: 6, Steps: 8, Seed: 21, GapProb: 0.1, EmptyProb: 0.1}
	var g, a bytes.Buffer
	if _, err := WriteGoogleUsage(&g, fab); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteAzureVM(&a, fab); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func() (Source, error){
		"google": func() (Source, error) { return NewGoogleUsage(bytes.NewReader(g.Bytes())) },
		"azure":  func() (Source, error) { return NewAzureVM(bytes.NewReader(a.Bytes())) },
	} {
		src, err := open()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		grid, err := NewGrid(src, GridConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := Collect(grid, CollectConfig{})
		if err != nil {
			t.Fatalf("%s: collect: %v", name, err)
		}
		if tr.NumVMs() != fab.VMs || tr.NumSteps() != fab.Steps {
			t.Fatalf("%s: trace is %dx%d, want %dx%d", name, tr.NumVMs(), tr.NumSteps(), fab.VMs, fab.Steps)
		}
	}
}

// --- feed ---

func TestFeedAggregatesAndHolds(t *testing.T) {
	recs := []Record{
		{VM: "a", Time: 0, Util: 0.5},
		{VM: "b", Time: 0, Util: 1.0},
		{VM: "a", Time: 900, Util: 0.25},
		{VM: "b", Time: 900, Util: 0.25},
	}
	feed, err := NewFeed(&sliceSource{recs: recs}, FeedConfig{Apps: 1, MaxConcurrency: 40, LagSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	levels, ok := feed.Step()
	if !ok || len(levels) != 1 || levels[0] != 30 { // mean(0.5, 1.0)*40
		t.Fatalf("step 0 levels = %v ok=%v, want [30] true", levels, ok)
	}
	levels, ok = feed.Step()
	if !ok || levels[0] != 10 { // mean(0.25, 0.25)*40
		t.Fatalf("step 1 levels = %v ok=%v, want [10] true", levels, ok)
	}
	if _, ok := feed.Step(); ok {
		t.Fatal("exhausted feed still returned a step")
	}
	if feed.Err() != nil {
		t.Fatalf("clean EOF reported as error: %v", feed.Err())
	}
}

func TestFeedEmptyInteriorStepHoldsAll(t *testing.T) {
	recs := []Record{
		{VM: "a", Time: 0, Util: 0.5},
		{VM: "a", Time: 1800, Util: 0.5}, // step 1 never arrives
	}
	// A slice source skips the grid, so step 1 is simply absent.
	feed, err := NewFeed(&sliceSource{recs: recs}, FeedConfig{Apps: 2, LagSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := feed.Step(); !ok {
		t.Fatal("step 0 missing")
	}
	levels, ok := feed.Step()
	if !ok {
		t.Fatal("interior step missing")
	}
	for i, l := range levels {
		if l != -1 {
			t.Fatalf("empty interior step: app %d level %d, want -1 (hold)", i, l)
		}
	}
}

// --- constant memory ---

// TestIngestConstantMemory streams a million-row fabricated corpus
// through the decoder and the resampler and asserts peak heap growth
// stays under a fixed bound — the package's rule 1. The corpus is
// produced on the fly through a pipe, so neither side ever holds the
// input.
func TestIngestConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row decode; skipped in -short")
	}
	fab := FabConfig{VMs: 2000, Steps: 167, Seed: 31, GapProb: 0.02, EmptyProb: 0.02} // 2000*167*3 ≈ 1.0M rows
	pr, pw := io.Pipe()
	go func() {
		_, err := WriteGoogleUsage(pw, fab)
		pw.CloseWithError(err)
	}()
	src, err := NewGoogleUsage(pr)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewGrid(src, GridConfig{})
	if err != nil {
		t.Fatal(err)
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	const bound = 48 << 20 // 48 MiB: orders of magnitude under the ~60 MB input
	peak := uint64(0)
	n := 0
	for {
		_, err := grid.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n%200000 == 0 {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > base && ms.HeapAlloc-base > peak {
				peak = ms.HeapAlloc - base
			}
		}
	}
	// A VM whose edge step drew only empty fields ends a step short (the
	// collector's edge policy covers it), so allow a tiny deficit.
	if want := fab.VMs * fab.Steps; n > want || n < want-20 {
		t.Fatalf("gridded %d records, want ~%d", n, want)
	}
	if peak > bound {
		t.Fatalf("peak heap growth %d MiB exceeds the %d MiB constant-memory bound", peak>>20, bound>>20)
	}
	t.Logf("decoded %d rows → %d gridded records, peak heap growth %d KiB", fab.Rows(), n, peak>>10)
}
