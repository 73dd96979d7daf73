package probe

import (
	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/fault"
	"vdcpower/internal/optimizer"
)

// Pass names one optimizer pass for the fact Probe.Pass emits.
type Pass struct {
	Kind    check.Kind // check.EvConsolidate or check.EvWatchdog
	Step    int
	TimeSec float64
	Span    string // the caller's span around the pass
	Policy  string
}

// Pass runs one consolidation or watchdog pass over dc and reports it as
// one fact of kind ps.Kind: the servers overloaded and active before the
// pass, its report, and the Minimum Slack effort cons spent in it (none
// when cons is nil). A real error returns before any fact is emitted. An
// injected one degrades the pass: the fact carries Degraded, and Pass
// returns degraded with a nil error so the harness skips the pass and
// carries on. A nil probe runs the pass and gathers no facts.
func (p *Probe) Pass(dc *cluster.DataCenter, ps Pass, cons optimizer.Consolidator, run func() (optimizer.Report, error)) (rep optimizer.Report, degraded bool, err error) {
	var ev check.Event
	if p != nil {
		p.active = p.active[:0]
		for _, s := range dc.Servers {
			p.active = append(p.active, s.State() == cluster.Active)
		}
		ev = check.Event{Kind: ps.Kind, Step: ps.Step, TimeSec: ps.TimeSec, Span: ps.Span, DC: dc, Policy: ps.Policy,
			OverloadedBefore: check.CountOverloaded(dc), ActiveBefore: p.active}
		ev.Nodes, ev.Widenings = optimizer.SearchEffort(cons)
	}
	rep, err = run()
	degraded = fault.IsInjected(err)
	if err != nil && !degraded {
		return rep, false, err
	}
	if p != nil {
		nodes, widenings := optimizer.SearchEffort(cons)
		p.rep = rep
		ev.Report, ev.Degraded = &p.rep, degraded
		ev.Nodes, ev.Widenings = nodes-ev.Nodes, widenings-ev.Widenings
		p.Emit(ev)
	}
	return rep, degraded, nil
}
