package telemetry

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
)

// refTracer is the span tracer that the compact store replaced, kept
// as the reference FuzzTracerMatchesReference compares it against: a
// fresh *refSpan per Start and Event, an attribute slice grown per span,
// and a ring of whole SpanRecords. Only Attr's payload encoding differs
// from the replaced code, because Attr's layout is shared.
type refTracer struct {
	mu       sync.Mutex
	clock    func() float64
	trackCap int
	tracks   map[string]*refTrack
}

func newRefTracer(clock func() float64, capacity int) *refTracer {
	if capacity <= 0 {
		capacity = DefaultTrackCapacity
	}
	return &refTracer{clock: clock, trackCap: capacity, tracks: map[string]*refTrack{}}
}

func (t *refTracer) Track(name string) *refTrack {
	t.mu.Lock()
	defer t.mu.Unlock()
	tk, ok := t.tracks[name]
	if !ok {
		tk = &refTrack{tracer: t, name: name}
		t.tracks[name] = tk
	}
	return tk
}

func (t *refTracer) Snapshot() []SpanRecord {
	t.mu.Lock()
	names := make([]string, 0, len(t.tracks))
	tracks := make([]*refTrack, 0, len(t.tracks))
	for n := range t.tracks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tracks = append(tracks, t.tracks[n])
	}
	t.mu.Unlock()
	var out []SpanRecord
	for _, tk := range tracks {
		out = append(out, tk.snapshot()...)
	}
	return out
}

func (t *refTracer) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, tk := range t.tracks {
		n += tk.dropped
	}
	return n
}

type refTrack struct {
	tracer  *refTracer
	name    string
	hasTime bool
	now     float64
	base    float64
	depth   int
	recs    []SpanRecord
	head    int
	seq     uint64
	dropped int
}

func (tk *refTrack) SetTime(sec float64) {
	tk.hasTime = true
	tk.now = tk.base + sec
}

func (tk *refTrack) Rebase() { tk.base = tk.Now() }

func (tk *refTrack) Now() float64 {
	if tk.hasTime {
		return tk.now
	}
	if tk.tracer.clock != nil {
		return tk.tracer.clock()
	}
	return 0
}

func (tk *refTrack) Start(name string) *refSpan {
	sp := &refSpan{track: tk, name: name, start: tk.Now(), depth: tk.depth}
	tk.depth++
	return sp
}

func (tk *refTrack) Event(name string) *refSpan {
	return &refSpan{track: tk, name: name, start: tk.Now(), depth: tk.depth, instant: true}
}

func (tk *refTrack) emit(rec SpanRecord) {
	rec.Seq = tk.seq
	tk.seq++
	if len(tk.recs) < tk.tracer.trackCap {
		tk.recs = append(tk.recs, rec)
	} else {
		tk.recs[tk.head] = rec
		tk.head = (tk.head + 1) % len(tk.recs)
		tk.dropped++
	}
}

func (tk *refTrack) snapshot() []SpanRecord {
	out := make([]SpanRecord, 0, len(tk.recs))
	out = append(out, tk.recs[tk.head:]...)
	out = append(out, tk.recs[:tk.head]...)
	return out
}

type refSpan struct {
	track   *refTrack
	name    string
	start   float64
	depth   int
	instant bool
	attrs   []Attr
}

func (sp *refSpan) Int(key string, v int) *refSpan {
	sp.attrs = append(sp.attrs, Attr{Key: key, kind: attrInt, n: uint64(v)})
	return sp
}

func (sp *refSpan) Float(key string, v float64) *refSpan {
	sp.attrs = append(sp.attrs, Attr{Key: key, kind: attrFloat, n: math.Float64bits(v)})
	return sp
}

func (sp *refSpan) Str(key, v string) *refSpan {
	sp.attrs = append(sp.attrs, Attr{Key: key, kind: attrStr, s: v})
	return sp
}

func (sp *refSpan) Bool(key string, v bool) *refSpan {
	var n uint64
	if v {
		n = 1
	}
	sp.attrs = append(sp.attrs, Attr{Key: key, kind: attrBool, n: n})
	return sp
}

func (sp *refSpan) End() {
	tk := sp.track
	rec := SpanRecord{
		Name:  sp.name,
		Track: tk.name,
		Start: sp.start,
		Depth: sp.depth,
		Phase: PhaseInstant,
		Attrs: sp.attrs,
	}
	if !sp.instant {
		tk.depth--
		rec.Phase = PhaseSpan
		if end := tk.Now(); end > sp.start {
			rec.Dur = end - sp.start
		}
	}
	tk.emit(rec)
}

// Fuzz ops: each takes two input bytes. The first byte's value modulo
// fuzzOps is the op and its quotient, modulo the track count, the
// track; the second is the op's argument.
const (
	fuzzStart    = iota // open a span; at depth fuzzMaxDepth, end one instead
	fuzzEnd             // end the innermost open span
	fuzzEvent           // open an instant, unless one is open
	fuzzEndEvent        // end the open instant
	fuzzInt             // attach to the open instant if the argument is odd, else the innermost span
	fuzzFloat           // likewise
	fuzzStr             // likewise
	fuzzBool            // likewise
	fuzzSetTime         // SetTime(argument / 4)
	fuzzRebase          // Rebase
	fuzzClock           // advance the tracer clock by argument / 8
	fuzzSnapshot        // keep a snapshot, checked again after every later op
	fuzzOps
)

const fuzzMaxDepth = 6

var (
	fuzzNames  = []string{"s", "mpc.solve", `q"uote`, "ünï\n", ""}
	fuzzKeys   = []string{"k", "vm", "a\tb"}
	fuzzStrs   = []string{"", "S1", `back\slash`, "\x00é"}
	fuzzFloats = []float64{0, math.Copysign(0, -1), 0.1, 696.9, -1e300, 5e-324, math.Inf(1), math.Inf(-1), math.NaN()}
)

// fuzzOp is one op of a seed; fuzzInput encodes seeds for readability.
type fuzzOp struct{ op, track, arg byte }

// fuzzInput encodes a header (ring capacity 1–8, 1–3 tracks, clocked)
// and ops as FuzzTracerMatchesReference decodes them.
func fuzzInput(capacity, tracks int, clocked bool, ops ...fuzzOp) []byte {
	h := byte(capacity-1) | byte(tracks-1)<<3
	if clocked {
		h |= 0x80
	}
	b := []byte{h}
	for _, o := range ops {
		b = append(b, o.op+fuzzOps*o.track, o.arg)
	}
	return b
}

// FuzzTracerMatchesReference runs properly nested op sequences on the
// tracer and on the tracer it replaced, at ring capacities that wrap,
// and after every op requires the same snapshot, drop count and Chrome
// trace bytes — and that every snapshot kept earlier still reads as it
// did when it was taken, so no snapshot shares storage that recording
// goes on to overwrite.
func FuzzTracerMatchesReference(f *testing.F) {
	o := func(op, track, arg byte) fuzzOp { return fuzzOp{op, track, arg} }
	// A wrapping ring: a capacity-2 track records five records with
	// attributes and keeps a snapshot, then one more record and a second
	// snapshot, and four more records overwrite the storage of the
	// attributes both hold.
	f.Add(fuzzInput(2, 1, false,
		o(fuzzEvent, 0, 0), o(fuzzInt, 0, 1), o(fuzzStr, 0, 3), o(fuzzEndEvent, 0, 0),
		o(fuzzEvent, 0, 1), o(fuzzFloat, 0, 7), o(fuzzEndEvent, 0, 0),
		o(fuzzStart, 0, 2), o(fuzzBool, 0, 0), o(fuzzStr, 0, 2), o(fuzzEnd, 0, 0),
		o(fuzzEvent, 0, 3), o(fuzzEndEvent, 0, 0),
		o(fuzzEvent, 0, 4), o(fuzzInt, 0, 255), o(fuzzInt, 0, 9), o(fuzzInt, 0, 11), o(fuzzEndEvent, 0, 0),
		o(fuzzSnapshot, 0, 0),
		o(fuzzStart, 0, 0), o(fuzzFloat, 0, 8), o(fuzzEnd, 0, 0),
		o(fuzzSnapshot, 0, 0),
		o(fuzzEvent, 0, 1), o(fuzzStr, 0, 1), o(fuzzStr, 0, 1), o(fuzzEndEvent, 0, 0),
		o(fuzzEvent, 0, 2), o(fuzzEndEvent, 0, 0),
		o(fuzzEvent, 0, 0), o(fuzzInt, 0, 1), o(fuzzInt, 0, 3), o(fuzzInt, 0, 5), o(fuzzEndEvent, 0, 0),
		o(fuzzStart, 0, 1), o(fuzzBool, 0, 2), o(fuzzFloat, 0, 5), o(fuzzStr, 0, 0), o(fuzzEnd, 0, 0)))
	// Instants inside nested spans on two tracks, one instant left open
	// while a span inside it starts and ends.
	f.Add(fuzzInput(8, 2, false,
		o(fuzzSetTime, 0, 1), o(fuzzStart, 0, 1), o(fuzzInt, 0, 4), o(fuzzStart, 0, 0),
		o(fuzzEvent, 0, 2), o(fuzzInt, 0, 3), o(fuzzStr, 0, 1), o(fuzzEndEvent, 0, 0),
		o(fuzzEvent, 1, 3), o(fuzzBool, 1, 1), o(fuzzStart, 1, 0), o(fuzzInt, 1, 2), o(fuzzSetTime, 1, 6), o(fuzzEnd, 1, 0), o(fuzzEndEvent, 1, 0),
		o(fuzzEvent, 0, 0), o(fuzzSetTime, 0, 3), o(fuzzEndEvent, 0, 0),
		o(fuzzSnapshot, 0, 0), o(fuzzEnd, 0, 0), o(fuzzSetTime, 0, 9), o(fuzzFloat, 0, 2), o(fuzzEnd, 0, 0)))
	// Rebase between two runs that each restart their clock at zero,
	// then a tracer clock that drives a third track.
	f.Add(fuzzInput(4, 3, true,
		o(fuzzRebase, 0, 0), o(fuzzStart, 0, 1), o(fuzzSetTime, 0, 0), o(fuzzSetTime, 0, 20), o(fuzzEnd, 0, 0),
		o(fuzzRebase, 0, 0), o(fuzzStart, 0, 1), o(fuzzSetTime, 0, 0), o(fuzzSetTime, 0, 20), o(fuzzEnd, 0, 0),
		o(fuzzClock, 2, 5), o(fuzzStart, 2, 0), o(fuzzClock, 2, 3), o(fuzzRebase, 2, 0), o(fuzzEnd, 2, 0),
		o(fuzzSetTime, 2, 1), o(fuzzEvent, 2, 4), o(fuzzEndEvent, 2, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 801 {
			return
		}
		capacity, ntracks, clocked := int(data[0]&7)+1, int(data[0]>>3)%3+1, data[0]&0x80 != 0
		clockNow := 0.0
		var clock func() float64
		if clocked {
			clock = func() float64 { return clockNow }
		}
		tr, ref := New(clock, capacity), newRefTracer(clock, capacity)
		type open struct {
			sp  *Span
			ref *refSpan
		}
		type kept struct {
			recs, copied []SpanRecord
			chrome       []byte
		}
		tracks := make([]*Track, ntracks)
		refTracks := make([]*refTrack, ntracks)
		stacks := make([][]open, ntracks)
		instants := make([]*open, ntracks)
		for i, name := range []string{"m", "a", "z"}[:ntracks] {
			tracks[i], refTracks[i] = tr.Track(name), ref.Track(name)
		}
		var snaps []kept
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i]%fuzzOps, data[i+1]
			k := int(data[i]/fuzzOps) % ntracks
			tk, rtk := tracks[k], refTracks[k]
			stack := stacks[k]
			if op == fuzzStart && len(stack) == fuzzMaxDepth {
				op = fuzzEnd
			}
			target := (*open)(nil)
			if in := instants[k]; in != nil && (arg&1 == 1 || len(stack) == 0) {
				target = in
			} else if len(stack) > 0 {
				target = &stack[len(stack)-1]
			}
			key := fuzzKeys[int(arg)%len(fuzzKeys)]
			switch op {
			case fuzzStart:
				name := fuzzNames[int(arg)%len(fuzzNames)]
				stacks[k] = append(stack, open{tk.Start(name), rtk.Start(name)})
			case fuzzEnd:
				if len(stack) > 0 {
					top := stack[len(stack)-1]
					top.sp.End()
					top.ref.End()
					stacks[k] = stack[:len(stack)-1]
				}
			case fuzzEvent:
				if instants[k] == nil {
					name := fuzzNames[int(arg)%len(fuzzNames)]
					instants[k] = &open{tk.Event(name), rtk.Event(name)}
				}
			case fuzzEndEvent:
				if in := instants[k]; in != nil {
					in.sp.End()
					in.ref.End()
					instants[k] = nil
				}
			case fuzzInt, fuzzFloat, fuzzStr, fuzzBool:
				if target == nil {
					break
				}
				switch op {
				case fuzzInt:
					v := int(int8(arg)) * 1_000_003
					target.sp.Int(key, v)
					target.ref.Int(key, v)
				case fuzzFloat:
					v := fuzzFloats[int(arg)%len(fuzzFloats)]
					target.sp.Float(key, v)
					target.ref.Float(key, v)
				case fuzzStr:
					v := fuzzStrs[int(arg)%len(fuzzStrs)]
					target.sp.Str(key, v)
					target.ref.Str(key, v)
				default:
					target.sp.Bool(key, arg&2 != 0)
					target.ref.Bool(key, arg&2 != 0)
				}
			case fuzzSetTime:
				tk.SetTime(float64(arg) / 4)
				rtk.SetTime(float64(arg) / 4)
			case fuzzRebase:
				tk.Rebase()
				rtk.Rebase()
			case fuzzClock:
				clockNow += float64(arg) / 8
			case fuzzSnapshot:
				recs := tr.Snapshot()
				copied := slices.Clone(recs)
				for j := range copied {
					copied[j].Attrs = slices.Clone(copied[j].Attrs)
				}
				if len(snaps) < 8 {
					snaps = append(snaps, kept{recs, copied, chromeBytes(t, recs)})
				}
			}
			got, want := tr.Snapshot(), ref.Snapshot()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d (%d on track %d): snapshot\n%+v\nreference\n%+v", i/2, op, k, got, want)
			}
			if g, w := tr.Dropped(), ref.Dropped(); g != w {
				t.Fatalf("op %d: dropped %d, reference %d", i/2, g, w)
			}
			if g, w := chromeBytes(t, got), chromeBytes(t, want); !bytes.Equal(g, w) {
				t.Fatalf("op %d: Chrome trace\n%s\nreference\n%s", i/2, g, w)
			}
			if g, w := tk.Now(), rtk.Now(); g != w {
				t.Fatalf("op %d: track time %v, reference %v", i/2, g, w)
			}
			for j, s := range snaps {
				if !reflect.DeepEqual(s.recs, s.copied) || !bytes.Equal(chromeBytes(t, s.recs), s.chrome) {
					t.Fatalf("op %d: snapshot %d changed after it was taken:\n%+v\nwas\n%+v", i/2, j, s.recs, s.copied)
				}
			}
		}
	})
}

func chromeBytes(t *testing.T, recs []SpanRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
