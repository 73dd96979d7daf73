package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vdcpower/internal/race"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// checkGolden compares got against testdata/golden/<name>, rewriting the
// file instead when -update is set (same convention as internal/report).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/telemetry -update` to create golden files)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s output changed:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestNilSafety drives the entire API through nil receivers: every call
// must no-op without panicking, because nil is the disabled state.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tk := tr.Track("x")
	if tk != nil {
		t.Fatal("nil tracer must hand out nil tracks")
	}
	tk.SetTime(3)
	if got := tk.Now(); got != 0 {
		t.Fatalf("nil track Now = %v, want 0", got)
	}
	if got := tk.Name(); got != "" {
		t.Fatalf("nil track Name = %q, want empty", got)
	}
	sp := tk.Start("s")
	sp.Int("i", 1).Float("f", 2).Str("s", "x").Bool("b", true).End()
	tk.Event("e").End()
	if recs := tr.Snapshot(); recs != nil {
		t.Fatalf("nil tracer Snapshot = %v, want nil", recs)
	}
	if tr.Dropped() != 0 {
		t.Fatal("nil tracer Dropped != 0")
	}

	var reg *Registry
	c := reg.Counter("c", "h")
	c.Inc()
	c.Add(2)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := reg.Gauge("g", "h")
	g.Set(5)
	if g.Value() != 0 {
		t.Fatal("nil gauge stored")
	}
	h := reg.Histogram("h", "h", nil)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram observed")
	}
	if err := reg.WriteProm(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestClockModes exercises the three timestamp sources: injected tracer
// clock, per-track logical override, and none (0).
func TestClockModes(t *testing.T) {
	now := 10.0
	tr := New(func() float64 { return now }, 0)
	tk := tr.Track("main")
	if got := tk.Now(); got != 10 {
		t.Fatalf("tracer clock Now = %v, want 10", got)
	}
	sp := tk.Start("outer")
	now = 12.5
	sp.End()
	recs := tr.Snapshot()
	if len(recs) != 1 || recs[0].Start != 10 || recs[0].Dur != 2.5 {
		t.Fatalf("tracer-clock span = %+v", recs)
	}

	// SetTime overrides the tracer clock for this track only.
	tk.SetTime(100)
	if got := tk.Now(); got != 100 {
		t.Fatalf("logical Now = %v, want 100", got)
	}
	other := tr.Track("other")
	if got := other.Now(); got != 12.5 {
		t.Fatalf("other track must still see tracer clock, got %v", got)
	}

	// No clock at all: everything stamps 0 until SetTime.
	tr2 := New(nil, 0)
	if got := tr2.Track("a").Now(); got != 0 {
		t.Fatalf("clockless Now = %v, want 0", got)
	}
}

// TestRebase reuses one track for two "runs" that each restart their
// logical clock at zero — the pattern of dcsim sweep workers. Rebase
// between them must keep the timeline monotonic so the second run's
// spans neither rewind to ts 0 nor clamp to zero duration.
func TestRebase(t *testing.T) {
	tr := New(nil, 0)
	tk := tr.Track("worker")
	for run := 0; run < 2; run++ {
		tk.Rebase()
		job := tk.Start("job")
		tk.SetTime(0) // the run resets its own clock...
		tk.SetTime(5) // ...and advances it
		job.End()
	}
	recs := tr.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	first, second := recs[0], recs[1]
	if first.Start != 0 || first.Dur != 5 {
		t.Fatalf("first job = [%v, dur %v], want [0, dur 5]", first.Start, first.Dur)
	}
	if second.Start != 5 || second.Dur != 5 {
		t.Fatalf("second job = [%v, dur %v], want [5, dur 5]: the run's SetTime(0) rewound the track", second.Start, second.Dur)
	}
}

// TestNestingDepth checks that Start/End maintain depth and that
// instants do not disturb it.
func TestNestingDepth(t *testing.T) {
	tr := New(nil, 0)
	tk := tr.Track("main")
	tk.SetTime(0)
	root := tk.Start("root")
	child := tk.Start("child")
	tk.Event("instant").Int("k", 1).End()
	grand := tk.Start("grand")
	grand.End()
	child.End()
	root.End()

	byName := map[string]SpanRecord{}
	for _, r := range tr.Snapshot() {
		byName[r.Name] = r
	}
	for name, depth := range map[string]int{"root": 0, "child": 1, "grand": 2, "instant": 2} {
		if byName[name].Depth != depth {
			t.Errorf("%s depth = %d, want %d", name, byName[name].Depth, depth)
		}
	}
	if byName["instant"].Phase != PhaseInstant {
		t.Errorf("instant phase = %c", byName["instant"].Phase)
	}
	if byName["root"].Phase != PhaseSpan {
		t.Errorf("root phase = %c", byName["root"].Phase)
	}
}

// TestRingDropOldest fills a 4-slot track past capacity and checks the
// oldest records are evicted and counted.
func TestRingDropOldest(t *testing.T) {
	tr := New(nil, 4)
	tk := tr.Track("main")
	for i := 0; i < 7; i++ {
		tk.SetTime(float64(i))
		tk.Event("e").Int("i", i).End()
	}
	recs := tr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("len = %d, want 4", len(recs))
	}
	for j, r := range recs {
		if want := float64(3 + j); r.Start != want {
			t.Errorf("rec %d Start = %v, want %v (newest must survive)", j, r.Start, want)
		}
	}
	if tr.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", tr.Dropped())
	}
}

// TestSnapshotOrder: tracks sort by name, records keep emission order.
func TestSnapshotOrder(t *testing.T) {
	tr := New(nil, 0)
	b := tr.Track("b")
	a := tr.Track("a")
	b.Event("b1").End()
	a.Event("a1").End()
	b.Event("b2").End()
	var got []string
	for _, r := range tr.Snapshot() {
		got = append(got, r.Name)
	}
	want := "a1,b1,b2"
	if strings.Join(got, ",") != want {
		t.Fatalf("order = %v, want %s", got, want)
	}
}

// TestTrackReuse: Track returns the same instance per name.
func TestTrackReuse(t *testing.T) {
	tr := New(nil, 0)
	if tr.Track("x") != tr.Track("x") {
		t.Fatal("Track not idempotent")
	}
}

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("vdcpower_test_total", "h")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %v, want 8000", c.Value())
	}
	c.Add(-5) // negative deltas ignored
	if c.Value() != 8000 {
		t.Fatalf("counter after negative Add = %v", c.Value())
	}
}

func TestRegistryIdentity(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("c_total", "h", Label{"app", "A"})
	b := reg.Counter("c_total", "h", Label{"app", "A"})
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	other := reg.Counter("c_total", "h", Label{"app", "B"})
	if a == other {
		t.Fatal("different labels must return distinct counters")
	}
	// A type conflict yields a working but detached instrument.
	g := reg.Gauge("c_total", "h")
	g.Set(1)
	if g.Value() != 1 {
		t.Fatal("detached gauge must still work")
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "# TYPE c_total gauge") {
		t.Fatal("conflicting type leaked into exposition")
	}
	// The conflict itself is surfaced as a leading comment line.
	if !strings.Contains(buf.String(), "# conflict: c_total requested as gauge but registered as counter") {
		t.Fatalf("exposition lacks conflict comment:\n%s", buf.String())
	}
}

// TestWritePromConcurrentLookup races first-time series creation against
// rendering: WriteProm must hold the registry lock while iterating the
// per-family series maps, or the race detector trips here.
func TestWritePromConcurrentLookup(t *testing.T) {
	reg := NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			reg.Counter("c_total", "h", Label{"app", fmt.Sprintf("app-%03d", i)}).Inc()
			reg.Histogram("h_seconds", "h", nil, Label{"app", fmt.Sprintf("app-%03d", i)}).Observe(0.1)
		}
	}()
	for {
		if err := reg.WriteProm(io.Discard); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "h", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 55.65; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// le="0.1" is cumulative and inclusive: 0.05 and 0.1 both land there.
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestPromEscaping: label values with quotes, backslashes and newlines
// must be escaped per the exposition format.
func TestPromEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("g", "help with\nnewline", Label{"app", `we"ird\name` + "\n"}).Set(1)
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# HELP g help with\nnewline`) {
		t.Errorf("HELP not escaped: %q", out)
	}
	if !strings.Contains(out, `g{app="we\"ird\\name\n"} 1`) {
		t.Errorf("label value not escaped: %q", out)
	}
}

// TestPromTypeOncePerFamily: multiple series of one family share a
// single # HELP/# TYPE header.
func TestPromTypeOncePerFamily(t *testing.T) {
	reg := NewRegistry()
	for _, app := range []string{"App2", "App1", "App3"} {
		reg.Counter("vdcpower_x_total", "x", Label{"app", app}).Inc()
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, "# TYPE vdcpower_x_total counter"); n != 1 {
		t.Fatalf("# TYPE emitted %d times, want 1:\n%s", n, out)
	}
	// Series are sorted by label signature.
	i1 := strings.Index(out, `app="App1"`)
	i2 := strings.Index(out, `app="App2"`)
	i3 := strings.Index(out, `app="App3"`)
	if !(i1 < i2 && i2 < i3) {
		t.Fatalf("series not sorted: %d %d %d\n%s", i1, i2, i3, out)
	}
}

// goldenRegistry builds a fixed registry covering all three instrument
// kinds, labels, and escaping for the exposition golden file.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("vdcpower_migrations_total", "VM migrations committed by the consolidator").Add(17)
	reg.Counter("vdcpower_migration_vetoes_total", "migrations rejected by the cost policy").Add(3)
	reg.Gauge("vdcpower_power_watts", "total data-center power draw").Set(1234.5)
	reg.Gauge("vdcpower_response_time_seconds", "mean end-to-end response time", Label{"app", "App1"}).Set(0.8)
	reg.Gauge("vdcpower_response_time_seconds", "mean end-to-end response time", Label{"app", "App2"}).Set(0.95)
	h := reg.Histogram("vdcpower_solve_latency_seconds", "MPC QP solve latency", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.002, 0.05, 0.2} {
		h.Observe(v)
	}
	return reg
}

func TestPromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "exposition.prom", buf.Bytes())
}

// goldenTrace records a fixed span tree exercising nesting, instants,
// every attribute kind, and two tracks.
func goldenTrace() *Tracer {
	tr := New(nil, 0)
	main := tr.Track("main")
	main.SetTime(0)
	period := main.Start("mpc.period").Str("app", "App1")
	main.SetTime(0.25)
	solve := main.Start("mpc.qp").Bool("relaxed", false)
	main.SetTime(0.75)
	solve.End()
	main.Event("cluster.migrate").Int("vm", 12).Str("from", "S1").Str("to", "S2").End()
	main.SetTime(1)
	period.End()
	w := tr.Track("worker-01")
	w.SetTime(0.5)
	w.Start("dcsim.job").Int("vms", 30).Float("per_vm_wh", 696.9).End()
	return tr
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenTrace().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("export is not valid JSON:\n%s", buf.String())
	}
	checkGolden(t, "trace.json", buf.Bytes())
}

// TestChromeTraceShape parses the export and checks the event fields
// the trace viewers rely on.
func TestChromeTraceShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenTrace().Snapshot()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	byName := map[string]map[string]any{}
	phases := map[string]int{}
	for _, e := range events {
		byName[e["name"].(string)] = e
		phases[e["ph"].(string)]++
	}
	if phases["M"] != 2 {
		t.Errorf("want 2 thread_name metadata events, got %d", phases["M"])
	}
	if phases["X"] != 3 || phases["i"] != 1 {
		t.Errorf("phases = %v, want 3 X and 1 i", phases)
	}
	qp := byName["mpc.qp"]
	period := byName["mpc.period"]
	if qp["ts"].(float64) < period["ts"].(float64) {
		t.Error("child starts before parent")
	}
	qpEnd := qp["ts"].(float64) + qp["dur"].(float64)
	periodEnd := period["ts"].(float64) + period["dur"].(float64)
	if qpEnd > periodEnd {
		t.Error("child ends after parent")
	}
	if qp["args"].(map[string]any)["depth"].(float64) != period["args"].(map[string]any)["depth"].(float64)+1 {
		t.Error("child depth is not parent+1")
	}
	mig := byName["cluster.migrate"]
	if mig["s"] != "t" || mig["args"].(map[string]any)["vm"].(float64) != 12 {
		t.Errorf("migrate instant malformed: %v", mig)
	}
	if byName["dcsim.job"]["tid"].(float64) == period["tid"].(float64) {
		t.Error("distinct tracks must get distinct tids")
	}
}

// TestChromeTraceDeterminism: building the same logical trace twice
// exports byte-identical JSON.
func TestChromeTraceDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, goldenTrace().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, goldenTrace().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same logical trace exported differently")
	}
}

// TestSnapshotWhileRecording covers the Snapshot/emit race under the
// race detector: one goroutine records while another snapshots.
func TestSnapshotWhileRecording(t *testing.T) {
	tr := New(WallClock, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tk := tr.Track("writer")
		for i := 0; i < 500; i++ {
			tk.Start("s").Int("i", i).End()
		}
	}()
	for i := 0; i < 50; i++ {
		tr.Snapshot()
		tr.Dropped()
	}
	<-done
	if n := len(tr.Snapshot()); n != 64 {
		t.Fatalf("final snapshot len = %d, want 64 (ring cap)", n)
	}
}

func TestWallClockAdvances(t *testing.T) {
	a := WallClock()
	b := WallClock()
	if b < a {
		t.Fatalf("WallClock went backwards: %v then %v", a, b)
	}
}

// recordPattern records one period's worth of spans on tk: nested spans
// with attributes of every kind and an instant inside them.
func recordPattern(tk *Track, k int) {
	tk.SetTime(float64(k))
	root := tk.Start("period").Int("k", k)
	child := tk.Start("solve").Float("bias", 0.5).Bool("relaxed", k%2 == 0)
	tk.Event("migrate").Str("vm", "vm01").Str("to", "S2").End()
	child.End()
	tk.Start("actuate").End()
	root.Int("relaxed", 1).End()
}

// TestWarmTrackRecordsWithoutAllocating wraps a track's ring several
// times: once its storage has grown, recording a span allocates nothing
// and the storage the track retains stops growing.
func TestWarmTrackRecordsWithoutAllocating(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates shadow state")
	}
	const capacity = 64 // 16 patterns of 4 records
	tk := New(nil, capacity).Track("main")
	retained := func() [4]int {
		tk.mu.Lock()
		defer tk.mu.Unlock()
		return [4]int{cap(tk.recs), len(tk.attrs), len(tk.spans), cap(tk.spans[0].attrs)}
	}
	k := 0
	for ; k < 2*capacity; k++ {
		recordPattern(tk, k)
	}
	warm := retained()
	if n := testing.AllocsPerRun(5*capacity, func() { recordPattern(tk, k); k++ }); n != 0 {
		t.Fatalf("a warmed track allocates %v times per pattern of 4 records, want 0", n)
	}
	if got := retained(); got != warm {
		t.Fatalf("retained storage grew from %v to %v (record cap, attribute ring, handles, handle buffer) after wrapping", warm, got)
	}
	if warm[0] != capacity {
		t.Fatalf("record ring holds %d entries, want the capacity %d", warm[0], capacity)
	}
}

// TestSnapshotAllocatesPerTrack: Snapshot's allocation count does not
// grow with the number of records, and each record owns its attributes,
// so appending to one leaves the next intact.
func TestSnapshotAllocatesPerTrack(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates shadow state")
	}
	allocs := func(patterns int) float64 {
		tr := New(nil, 0)
		for _, name := range []string{"a", "b", "c"} {
			tk := tr.Track(name)
			for k := 0; k < patterns; k++ {
				recordPattern(tk, k)
			}
		}
		return testing.AllocsPerRun(10, func() { tr.Snapshot() })
	}
	few, many := allocs(2), allocs(500)
	if many != few {
		t.Fatalf("Snapshot allocates %v times over 24 records and %v over 6000", few, many)
	}
	if few > 8 {
		t.Fatalf("Snapshot allocates %v times over three tracks, want at most 8", few)
	}

	tr := New(nil, 0)
	recordPattern(tr.Track("a"), 0)
	recs := tr.Snapshot()
	recs[0].Attrs = append(recs[0].Attrs, Attr{Key: "extra"})
	if got := recs[1].Attrs[0].Key; got != "bias" {
		t.Fatalf("appending to one record's attributes overwrote the next record's: first key %q, want bias", got)
	}
}
