// Package probe is the stack's single observer seam. Each harness — the
// testbed, the data-center simulator and the HTTP server — emits every
// fact it observes once, as a check.Event, into one nil-safe Probe, and
// runs every optimizer pass through Probe.Pass, so a pass fact has one
// shape in every harness. The invariant checker and the health scorecard
// subscribe to it as they stand, and Metrics adapts the metrics registry.
// Facts carry logical simulation time only, so subscribers observe
// same-seed runs byte-identically.
package probe

import (
	"vdcpower/internal/check"
	"vdcpower/internal/optimizer"
)

// Subscriber receives every fact a probe emits, in emission order;
// pointer fields of the event are valid only during the call.
// *check.Checker and *obs.Scorecard are Subscribers as they stand.
type Subscriber interface {
	Observe(check.Event)
}

// Probe fans facts out to its subscribers. It is single-writer, like the
// harness that owns it (serve emits under its mutex).
type Probe struct {
	subs []Subscriber

	active []bool           // Pass's before-snapshot, reused pass to pass
	rep    optimizer.Report // the report of the pass fact being delivered
}

// New returns a probe over the non-nil subscribers, or nil when none is
// left: a nil *Probe drops every fact, so an unobserved run pays only for
// building the event values. A nil pointer held in a Subscriber is not a
// nil subscriber, so a caller subscribes a scorecard only when it built
// one.
func New(subs ...Subscriber) *Probe {
	var p Probe
	for _, s := range subs {
		if s != nil {
			p.subs = append(p.subs, s)
		}
	}
	if len(p.subs) == 0 {
		return nil
	}
	return &p
}

// Emit delivers one fact to every subscriber, in subscription order.
func (p *Probe) Emit(ev check.Event) {
	if p == nil {
		return
	}
	for _, s := range p.subs {
		s.Observe(ev)
	}
}

// Err returns the first verdict among subscribers that judge the run (a
// *check.Checker reports its invariant violations), or nil.
func (p *Probe) Err() error {
	if p == nil {
		return nil
	}
	for _, s := range p.subs {
		if v, ok := s.(interface{ Err() error }); ok {
			if err := v.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}
