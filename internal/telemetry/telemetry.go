// Package telemetry is the observability substrate of the two-level
// power manager: a span-based tracer with an injectable clock, a
// lock-cheap metrics registry (counters, gauges, fixed-bucket
// histograms) with Prometheus text exposition, and a Chrome-trace-JSON
// exporter (chrome://tracing / Perfetto).
//
// Two design rules govern the package:
//
//  1. Telemetry is opt-in and nil-safe. A nil *Tracer, *Track, *Span,
//     *Registry, *Counter, *Gauge or *Histogram is a valid disabled
//     instrument: every method no-ops after a single nil check, so the
//     instrumented hot paths (the Fig. 6 simulation loop, Algorithm 1's
//     branch-and-bound) cost ~zero when tracing is off — proven by
//     BenchmarkFig6TelemetryOff/On at the module root.
//
//  2. The clock is injected, never read directly. Deterministic
//     packages (dcsim, testbed, and everything below them) timestamp
//     spans with logical simulation time, so traces reproduce
//     byte-for-byte from a seed and vdclint's determinism analyzer
//     stays green; interactive edges (cmd/serve) inject WallClock and
//     get real latencies for the dashboard's timing panel. The
//     telemetry vdclint analyzer enforces that instrumented packages
//     never bypass the injected clock.
package telemetry

import (
	"math"
	"slices"
	"strings"
	"sync"
	"time"
)

// DefaultTrackCapacity bounds each track's span ring buffer when the
// Tracer is constructed with capacity <= 0. When a track overflows, the
// oldest records are dropped (and counted), never the newest: the tail
// of a run is what post-mortems need.
const DefaultTrackCapacity = 16384

// processStart anchors WallClock so exported timestamps stay small.
//
//lint:ignore telemetry this IS the wall-clock implementation the injected clock abstracts
var processStart = time.Now()

// WallClock returns wall-clock seconds since process start. It is the
// clock the interactive edges (cmd/serve) inject; deterministic
// harnesses inject simulation time instead.
func WallClock() float64 {
	//lint:ignore telemetry this IS the wall-clock implementation the injected clock abstracts
	return time.Since(processStart).Seconds()
}

// Traceable is implemented by components (consolidators, controllers)
// that can record spans onto a harness-owned track. Harnesses
// type-assert against it so the Consolidator interface stays telemetry
// free.
type Traceable interface {
	SetTrace(*Track)
}

// attrKind discriminates Attr payloads.
type attrKind uint8

const (
	attrInt attrKind = iota
	attrFloat
	attrStr
	attrBool
)

// Attr is one typed span attribute. Attributes keep their recording
// order (call sites list them deterministically), so exports are
// byte-stable without sorting. An Int, a Float's bits or a Bool (0 or
// 1) share one word, so an attribute is 48 bytes.
type Attr struct {
	Key  string
	s    string // attrStr
	n    uint64 // attrInt, attrFloat (math.Float64bits), attrBool
	kind attrKind
}

// Phase values of a SpanRecord, matching the Chrome trace event phases.
const (
	PhaseSpan    = 'X' // complete event: Start..End
	PhaseInstant = 'i' // point event: Event
)

// SpanRecord is one finished span or instant event.
type SpanRecord struct {
	Name  string
	Track string
	Start float64 // seconds on the track's clock
	Dur   float64 // seconds; 0 for instants
	Depth int     // nesting depth at Start (0 = root)
	Phase byte    // PhaseSpan or PhaseInstant
	Seq   uint64  // per-track emission sequence
	Attrs []Attr
}

// Tracer owns the span sink and the injected clock. Construct with New;
// a nil *Tracer is a valid disabled tracer.
type Tracer struct {
	mu       sync.Mutex
	clock    func() float64
	trackCap int
	tracks   map[string]*Track
}

// New builds a tracer. clock supplies timestamps in seconds — pass the
// simulator's Now for deterministic traces or WallClock at interactive
// edges; nil means tracks run on logical time set via Track.SetTime
// (starting at 0). capacity bounds each track's ring buffer (<= 0
// selects DefaultTrackCapacity); a track's storage grows with use up to
// that bound and is never allocated at it up front.
func New(clock func() float64, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTrackCapacity
	}
	return &Tracer{clock: clock, trackCap: capacity, tracks: map[string]*Track{}}
}

// Track returns the named track, creating it on first use. A track is
// the unit of sequential execution (one goroutine at a time): spans on
// one track nest by Start/End order. Distinct tracks may be used from
// distinct goroutines concurrently. Nil-safe: a nil tracer returns a
// nil (disabled) track.
func (t *Tracer) Track(name string) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tk, ok := t.tracks[name]
	if !ok {
		tk = &Track{tracer: t, name: name}
		tk.event = Span{track: tk, instant: true}
		t.tracks[name] = tk
	}
	return tk
}

// sortedTracks returns the tracks sorted by name.
func (t *Tracer) sortedTracks() []*Track {
	t.mu.Lock()
	tracks := make([]*Track, 0, len(t.tracks))
	for _, tk := range t.tracks {
		tracks = append(tracks, tk)
	}
	t.mu.Unlock()
	slices.SortFunc(tracks, func(a, b *Track) int { return strings.Compare(a.name, b.name) })
	return tracks
}

// Snapshot returns every recorded span, tracks sorted by name and
// records in emission order within each track — a deterministic order,
// so exports of deterministic runs are byte-identical. The records own
// their attributes: recording that goes on after Snapshot returns never
// changes them. It allocates a few objects per track, however many
// records the tracks hold.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	tracks := t.sortedTracks()
	n := 0
	for _, tk := range tracks {
		tk.mu.Lock()
		n += len(tk.recs)
		tk.mu.Unlock()
	}
	var out []SpanRecord
	if n > 0 {
		out = make([]SpanRecord, 0, n)
	}
	for _, tk := range tracks {
		out = tk.appendRecords(out)
	}
	return out
}

// Dropped returns the total number of records evicted from full ring
// buffers across all tracks.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, tk := range t.sortedTracks() {
		tk.mu.Lock()
		n += tk.dropped
		tk.mu.Unlock()
	}
	return n
}

// Track is one sequential stream of nested spans. Methods must be
// called from one goroutine at a time (the owning simulation loop or
// worker); the tracer serializes cross-track state internally.
//
// A track records without allocating once its storage has grown: Start
// hands out the track's handle for the span's depth and Event the
// track's one instant handle, each reused with its attribute buffer,
// and End moves the record into a ring of entries and its attributes
// into a ring of their own.
type Track struct {
	tracer *Tracer
	name   string

	// logical time override: set via SetTime by harnesses that carry
	// their own step clock (dcsim); when unset the tracer clock rules.
	// base shifts the logical origin (see Rebase) so one track can host
	// consecutive runs that each restart their clock at zero.
	hasTime bool
	now     float64
	base    float64
	depth   int
	spans   []*Span // spans[d] is the handle of the open span at depth d
	event   Span    // the handle of the open instant

	// The store, guarded by mu against Snapshot. recs is the record
	// ring (head its oldest entry once len(recs) reaches the tracer's
	// capacity); a record's Seq is dropped plus its place in the ring.
	// attrs is a ring of the records' attributes in record order:
	// attrLen of them from attrHead on, the oldest record's first.
	mu                sync.Mutex
	recs              []entry
	head              int
	dropped           int
	attrs             []Attr
	attrHead, attrLen int
}

// entry is a stored record: a SpanRecord without the fields the ring
// implies — Track, Seq and where its attributes sit. 48 bytes.
type entry struct {
	name   string
	start  float64
	dur    float64
	depth  int32
	nattrs uint32
	phase  byte
}

// Name returns the track name ("" for a disabled track).
func (tk *Track) Name() string {
	if tk == nil {
		return ""
	}
	return tk.name
}

// SetTime sets the track's logical clock, overriding the tracer clock
// for every subsequent Start/End/Event on this track. Deterministic
// harnesses without a continuous simulator clock (dcsim's trace-step
// loop) call it once per step. sec is relative to the track's current
// origin (0 until Rebase moves it).
func (tk *Track) SetTime(sec float64) {
	if tk == nil {
		return
	}
	tk.hasTime = true
	tk.now = tk.base + sec
}

// Rebase moves the track's logical-time origin forward to the current
// timestamp: subsequent SetTime(sec) calls map sec onto origin+sec.
// Harnesses that reuse one track for consecutive runs which each reset
// their own clock (dcsim.Run starts every run at SetTime(0)) call it
// between runs — without it the second run would rewind the track,
// clamping enclosing span durations to zero and stacking every run at
// ts 0 in the exported trace.
func (tk *Track) Rebase() {
	if tk == nil {
		return
	}
	tk.base = tk.Now()
}

// Now returns the track's current timestamp in seconds: the logical
// time if SetTime was used, otherwise the tracer clock (0 when both are
// absent). Nil-safe. Instrumented packages measure durations with it
// instead of reading the wall clock.
func (tk *Track) Now() float64 {
	if tk == nil {
		return 0
	}
	if tk.hasTime {
		return tk.now
	}
	if tk.tracer.clock != nil {
		return tk.tracer.clock()
	}
	return 0
}

// Start opens a span. The returned handle accumulates attributes and
// must be closed with End from the same goroutine, before the span that
// encloses it (see Span). Nil-safe: on a disabled track it returns nil
// and every Span method no-ops.
func (tk *Track) Start(name string) *Span {
	if tk == nil {
		return nil
	}
	if tk.depth == len(tk.spans) {
		tk.spans = append(tk.spans, &Span{track: tk})
	}
	sp := tk.spans[tk.depth]
	sp.open(name, tk.Now(), tk.depth)
	tk.depth++
	return sp
}

// Event opens an instant (point-in-time) event — migrations, vetoes,
// server wake/sleep transitions. Close it with End like a span, before
// the track's next Event; it does not affect nesting depth.
func (tk *Track) Event(name string) *Span {
	if tk == nil {
		return nil
	}
	tk.event.open(name, tk.Now(), tk.depth)
	return &tk.event
}

// store records a finished entry and its attributes, evicting the
// oldest record and its attributes once the ring is full. Both rings
// double while the record ring fills. When it first fills, the
// attribute ring is trimmed to an eighth above what it holds, and from
// then on it grows to an eighth above what it needs: a full track's
// records then need about as many attributes as they already hold.
func (tk *Track) store(e entry, attrs []Attr) {
	tk.mu.Lock()
	capacity := tk.tracer.trackCap
	full := len(tk.recs) == capacity
	if !full {
		if len(tk.recs) == cap(tk.recs) {
			grown := make([]entry, len(tk.recs), min(max(2*len(tk.recs), 8), capacity))
			copy(grown, tk.recs)
			tk.recs = grown
		}
		tk.recs = append(tk.recs, e)
	} else {
		old := &tk.recs[tk.head]
		tk.attrHead = tk.attrSlot(int(old.nattrs))
		tk.attrLen -= int(old.nattrs)
		*old = e
		if tk.head++; tk.head == len(tk.recs) {
			tk.head = 0
		}
		tk.dropped++
	}
	if need := tk.attrLen + len(attrs); need > len(tk.attrs) {
		size := max(2*len(tk.attrs), need, 8)
		if full {
			size = need + need/8
		}
		tk.resizeAttrs(size)
	}
	for _, a := range attrs {
		tk.attrs[tk.attrSlot(tk.attrLen)] = a
		tk.attrLen++
	}
	if trimmed := tk.attrLen + tk.attrLen/8; !full && len(tk.recs) == capacity && trimmed < len(tk.attrs) {
		tk.resizeAttrs(trimmed)
	}
	tk.mu.Unlock()
}

// attrSlot returns the index in attrs of the i-th stored attribute
// (0 <= i <= len(attrs)). Callers hold mu.
func (tk *Track) attrSlot(i int) int {
	if j := tk.attrHead + i; j < len(tk.attrs) {
		return j
	}
	return tk.attrHead + i - len(tk.attrs)
}

// resizeAttrs moves the stored attributes, oldest first, into a new
// ring of the given length. Callers hold mu.
func (tk *Track) resizeAttrs(size int) {
	grown := make([]Attr, size)
	tk.copyAttrs(grown)
	tk.attrs, tk.attrHead = grown, 0
}

// copyAttrs copies the stored attributes, oldest first, into dst[:attrLen].
// Callers hold mu.
func (tk *Track) copyAttrs(dst []Attr) {
	n := copy(dst[:tk.attrLen], tk.attrs[tk.attrHead:])
	copy(dst[n:tk.attrLen], tk.attrs)
}

// appendRecords appends the ring's records to out in emission order,
// with their attributes copied into one array the snapshot owns.
func (tk *Track) appendRecords(out []SpanRecord) []SpanRecord {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	var attrs []Attr
	if tk.attrLen > 0 {
		attrs = make([]Attr, tk.attrLen)
		tk.copyAttrs(attrs)
	}
	out = slices.Grow(out, len(tk.recs))
	for i := range tk.recs {
		j := tk.head + i
		if j >= len(tk.recs) {
			j -= len(tk.recs)
		}
		e := &tk.recs[j]
		rec := SpanRecord{Name: e.name, Track: tk.name, Start: e.start, Dur: e.dur,
			Depth: int(e.depth), Phase: e.phase, Seq: uint64(tk.dropped + i)}
		if n := int(e.nattrs); n > 0 {
			rec.Attrs, attrs = attrs[:n:n], attrs[n:]
		}
		out = append(out, rec)
	}
	return out
}

// Span is an open span (or instant event) handle. All methods are
// nil-safe and return the receiver so attributes chain:
//
//	sp := track.Start("packing.minslack")
//	...
//	sp.Int("nodes", n).Bool("widened", w).End()
//
// The track owns the handle and hands it out again: Start reuses the
// handle of the last span ended at the same depth, and Event reuses the
// track's one instant handle. So a span must End before the span that
// encloses it, an instant must End before the next Event on its track,
// and a handle is never used after its End — a handle used out of turn
// would silently corrupt another span's record.
type Span struct {
	track   *Track
	name    string
	start   float64
	depth   int
	instant bool
	attrs   []Attr // this span's attributes until End stores them
}

// open readies the handle for a new span or instant, keeping its
// attribute buffer's storage.
func (sp *Span) open(name string, start float64, depth int) {
	sp.name, sp.start, sp.depth, sp.attrs = name, start, depth, sp.attrs[:0]
}

// Int attaches an integer attribute.
func (sp *Span) Int(key string, v int) *Span {
	if sp == nil {
		return nil
	}
	sp.attrs = append(sp.attrs, Attr{Key: key, kind: attrInt, n: uint64(v)})
	return sp
}

// Float attaches a float attribute.
func (sp *Span) Float(key string, v float64) *Span {
	if sp == nil {
		return nil
	}
	sp.attrs = append(sp.attrs, Attr{Key: key, kind: attrFloat, n: math.Float64bits(v)})
	return sp
}

// Str attaches a string attribute.
func (sp *Span) Str(key, v string) *Span {
	if sp == nil {
		return nil
	}
	sp.attrs = append(sp.attrs, Attr{Key: key, kind: attrStr, s: v})
	return sp
}

// Bool attaches a boolean attribute.
func (sp *Span) Bool(key string, v bool) *Span {
	if sp == nil {
		return nil
	}
	var n uint64
	if v {
		n = 1
	}
	sp.attrs = append(sp.attrs, Attr{Key: key, kind: attrBool, n: n})
	return sp
}

// End closes the span and records it. For instants the duration is 0;
// for spans it is the track clock's advance since Start (0 under a
// stalled logical clock — nesting still reconstructs from depth).
func (sp *Span) End() {
	if sp == nil {
		return
	}
	tk := sp.track
	e := entry{name: sp.name, start: sp.start, depth: int32(sp.depth),
		nattrs: uint32(len(sp.attrs)), phase: PhaseInstant}
	if !sp.instant {
		tk.depth--
		e.phase = PhaseSpan
		if end := tk.Now(); end > sp.start {
			e.dur = end - sp.start
		}
	}
	tk.store(e, sp.attrs)
}
