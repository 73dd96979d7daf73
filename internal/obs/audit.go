package obs

// Decision is one entry of the audit ring: a "PAC turned server k off
// because its load was packed away" grade record. Component names the
// deciding loop (a consolidation policy, "watchdog", "controller",
// "serve"), Span links the record to the telemetry span under which the
// decision was traced (same name, same Step → the Chrome-trace view and
// the audit log cross-reference), and TimeSec is logical sim time, so
// same-seed runs audit identically.
type Decision struct {
	Seq       uint64  `json:"seq"`
	Step      int     `json:"step"`
	TimeSec   float64 `json:"time_sec"`
	Component string  `json:"component"`
	Action    string  `json:"action"`
	Target    string  `json:"target,omitempty"`
	Reason    string  `json:"reason"`
	Value     float64 `json:"value,omitempty"`
	Span      string  `json:"span,omitempty"`
}

// Audit is a bounded ring of decisions: the newest records are kept,
// older ones are counted as dropped. Record reuses ring slots, so
// steady-state auditing does not allocate. A nil *Audit is a valid
// disabled instrument.
type Audit struct {
	ring    []Decision // grows to capacity once, then slots are reused
	head    int        // index of the oldest record once the ring is full
	seq     uint64     // next sequence number
	evicted uint64
}

// newAudit returns an empty ring with the given capacity (min 1).
func newAudit(capacity int) *Audit {
	if capacity < 1 {
		capacity = 1
	}
	return &Audit{ring: make([]Decision, 0, capacity)}
}

// Record appends one decision, assigning its sequence number and
// evicting the oldest record once the ring is full.
func (a *Audit) Record(d Decision) {
	if a == nil {
		return
	}
	d.Seq = a.seq
	a.seq++
	if n := len(a.ring); n < cap(a.ring) {
		a.ring = a.ring[:n+1]
		a.ring[n] = d
		return
	}
	a.ring[a.head] = d
	a.head++
	if a.head == cap(a.ring) {
		a.head = 0
	}
	a.evicted++
}

// Len is the number of records currently held.
func (a *Audit) Len() int {
	if a == nil {
		return 0
	}
	return len(a.ring)
}

// Dropped is the number of records evicted by the bound.
func (a *Audit) Dropped() uint64 {
	if a == nil {
		return 0
	}
	return a.evicted
}

// Records returns the held decisions in sequence order (a copy).
func (a *Audit) Records() []Decision {
	if a == nil || len(a.ring) == 0 {
		return nil
	}
	out := make([]Decision, len(a.ring))
	n := copy(out, a.ring[a.head:])
	copy(out[n:], a.ring[:a.head])
	return out
}

// merge re-records o's decisions into a in o's chronological order
// (their sequence numbers are reassigned in a's space); decisions o had
// already evicted stay counted as dropped.
func (a *Audit) merge(o *Audit) {
	if a == nil || o == nil {
		return
	}
	for _, d := range o.Records() {
		a.Record(d)
	}
	a.evicted += o.evicted
}

// AuditReport is the JSON form of the ring.
type AuditReport struct {
	Dropped uint64     `json:"dropped"`
	Records []Decision `json:"records"`
}

func (a *Audit) report() AuditReport {
	recs := a.Records()
	if recs == nil {
		recs = []Decision{} // render as [], not null
	}
	return AuditReport{Dropped: a.Dropped(), Records: recs}
}
