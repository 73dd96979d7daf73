package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WriteChromeTrace writes records in the Chrome trace event format
// (JSON array form), loadable in chrome://tracing and Perfetto. Spans
// become complete ('X') events and instants become 'i' events;
// timestamps and durations are microseconds. Each track maps to one
// tid (assigned by sorted track name) and gets a thread_name metadata
// event so the viewer labels rows. The JSON is hand-assembled in a
// fixed order — records as given, attributes in recording order — so
// deterministic runs export byte-identical traces.
func WriteChromeTrace(w io.Writer, recs []SpanRecord) error {
	tids := map[string]int{}
	var names []string
	for _, r := range recs {
		if _, ok := tids[r.Track]; !ok {
			tids[r.Track] = 0
			names = append(names, r.Track)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		tids[n] = i + 1
	}

	var b strings.Builder
	b.WriteString("[\n")
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.WriteString(line)
	}
	for _, n := range names {
		var m strings.Builder
		m.WriteString(`{"name":"thread_name","ph":"M","pid":1,"tid":`)
		m.WriteString(strconv.Itoa(tids[n]))
		m.WriteString(`,"args":{"name":`)
		m.WriteString(jsonString(n))
		m.WriteString(`}}`)
		emit(m.String())
	}
	for _, r := range recs {
		var m strings.Builder
		m.WriteString(`{"name":`)
		m.WriteString(jsonString(r.Name))
		m.WriteString(`,"ph":"`)
		m.WriteByte(r.Phase)
		m.WriteString(`","ts":`)
		m.WriteString(micros(r.Start))
		if r.Phase == PhaseSpan {
			m.WriteString(`,"dur":`)
			m.WriteString(micros(r.Dur))
		} else {
			m.WriteString(`,"s":"t"`)
		}
		m.WriteString(`,"pid":1,"tid":`)
		m.WriteString(strconv.Itoa(tids[r.Track]))
		m.WriteString(`,"args":{`)
		m.WriteString(`"depth":`)
		m.WriteString(strconv.Itoa(r.Depth))
		for _, a := range r.Attrs {
			m.WriteByte(',')
			m.WriteString(jsonString(a.Key))
			m.WriteByte(':')
			switch a.kind {
			case attrInt:
				m.WriteString(strconv.FormatInt(int64(a.n), 10))
			case attrFloat:
				m.WriteString(jsonFloat(math.Float64frombits(a.n)))
			case attrStr:
				m.WriteString(jsonString(a.s))
			case attrBool:
				m.WriteString(strconv.FormatBool(a.n != 0))
			}
		}
		m.WriteString(`}}`)
		emit(m.String())
	}
	b.WriteString("\n]\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// micros renders seconds as microseconds with fixed millinanosecond
// precision, keeping output byte-stable across runs.
func micros(sec float64) string {
	return strconv.FormatFloat(sec*1e6, 'f', 3, 64)
}

// jsonFloat renders an attribute float; non-finite values fall back to
// a JSON string since bare NaN/Inf are invalid JSON.
func jsonFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if strings.ContainsAny(s, "IN") { // Inf, NaN
		return `"` + s + `"`
	}
	return s
}

// jsonString renders a JSON string literal.
func jsonString(s string) string {
	out, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		return `""`
	}
	return string(out)
}
