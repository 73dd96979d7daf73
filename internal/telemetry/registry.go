package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (e.g. {app="App3"}).
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing float64. Updates are atomic
// (CAS on the bit pattern), so hot loops increment without a lock.
// A nil *Counter is a valid disabled instrument.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (negative deltas are ignored: counters only go up).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 || math.IsNaN(v) {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a settable float64 with atomic access. A nil *Gauge is a
// valid disabled instrument.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Observe takes one
// short mutex hold; buckets are immutable after construction. A nil
// *Histogram is a valid disabled instrument.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // strictly increasing upper bounds; +Inf implicit
	counts []uint64  // len(bounds)+1, last is the +Inf bucket
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// DefaultBuckets spans 1 ms to 10 s — suitable both for control-step
// solve latencies and for response times around the paper's 1 s SLA.
func DefaultBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// ExponentialBuckets returns n upper bounds starting at start and
// growing by factor. It panics only via the registry's validation path
// (callers pass literals).
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// metric family types.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labeled instrument within a family.
type series struct {
	labels []Label
	key    string // canonical label signature, used for sort + dedup
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series of one metric name: HELP/TYPE are emitted
// once per family, as the exposition format requires.
type family struct {
	name, help, typ string
	buckets         []float64
	series          map[string]*series
}

// Registry is a metrics namespace the simulation and testbed publish
// into and /metrics renders. Instrument lookup takes the registry
// mutex; the returned instruments update lock-free (counters, gauges)
// or under their own short mutex (histograms), so the registry itself
// is never on a hot path. A nil *Registry hands out nil instruments,
// making disabled metrics free.
type Registry struct {
	mu        sync.Mutex
	families  map[string]*family
	conflicts map[string]string // conflict key → exposition comment line
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelKey canonicalizes a label set (sorted by key).
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	return b.String()
}

// lookup returns the series for (name, labels), creating family and
// series as needed. A type conflict with an existing family yields a
// detached series: the instrument works but is not exported, and the
// conflict is surfaced as a comment in the exposition.
func (r *Registry) lookup(name, help, typ string, buckets []float64, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.typ != typ {
		if r.conflicts == nil {
			r.conflicts = map[string]string{}
		}
		r.conflicts[name+"\x00"+typ] = fmt.Sprintf(
			"# conflict: %s requested as %s but registered as %s; conflicting series not exported",
			name, typ, f.typ)
		return newSeries(typ, buckets, labels) // detached
	}
	key := labelKey(labels)
	s, ok := f.series[key]
	if !ok {
		s = newSeries(typ, f.buckets, labels)
		s.key = key
		f.series[key] = s
	}
	return s
}

func newSeries(typ string, buckets []float64, labels []Label) *series {
	s := &series{labels: append([]Label(nil), labels...)}
	switch typ {
	case typeCounter:
		s.c = &Counter{}
	case typeGauge:
		s.g = &Gauge{}
	case typeHistogram:
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		s.h = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	}
	return s
}

// Counter returns (creating if needed) the counter for name+labels.
// Repeated calls with the same identity return the same instrument.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeCounter, nil, labels).c
}

// Gauge returns the gauge for name+labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeGauge, nil, labels).g
}

// Histogram returns the histogram for name+labels. buckets are the
// upper bounds (+Inf is implicit); the first registration of a family
// fixes them and later calls reuse the family's buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefaultBuckets()
	}
	return r.lookup(name, help, typeHistogram, buckets, labels).h
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double-quote and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// renderLabels renders a label set (plus an optional extra label, used
// for histogram le) as {k="v",...}, or "" when empty.
func renderLabels(labels []Label, extra *Label) string {
	if len(labels) == 0 && extra == nil {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if extra != nil {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extra.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WriteProm writes the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, HELP and TYPE emitted once
// per family, series sorted by label signature, label values escaped.
// Type-conflicting registrations are surfaced as leading "# conflict"
// comment lines. The output is deterministic for a fixed registry
// state. The registry mutex is held for the whole render: lookup
// inserts into the per-family series maps under the same lock, so
// releasing it mid-iteration would race with first-time series
// creation from concurrent scrapes and publishers.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)

	var b strings.Builder
	if len(r.conflicts) > 0 {
		lines := make([]string, 0, len(r.conflicts))
		for _, line := range r.conflicts {
			lines = append(lines, line)
		}
		sort.Strings(lines)
		for _, line := range lines {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	for _, n := range names {
		f := r.families[n]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch f.typ {
			case typeCounter:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(s.labels, nil), formatValue(s.c.Value()))
			case typeGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(s.labels, nil), formatValue(s.g.Value()))
			case typeHistogram:
				s.h.mu.Lock()
				cum := uint64(0)
				for i, bound := range s.h.bounds {
					cum += s.h.counts[i]
					le := Label{Key: "le", Value: formatValue(bound)}
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, renderLabels(s.labels, &le), cum)
				}
				cum += s.h.counts[len(s.h.bounds)]
				le := Label{Key: "le", Value: "+Inf"}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, renderLabels(s.labels, &le), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, renderLabels(s.labels, nil), formatValue(s.h.sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, renderLabels(s.labels, nil), s.h.count)
				s.h.mu.Unlock()
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
