package probe

import (
	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/mpc"
	"vdcpower/internal/obs"
)

// Scorecard subscribes a controller-health scorecard: the init fact
// registers the testbed's applications against their set point, and every
// later fact folds into the scorecard's tallies, sketches, SLO windows and
// decision audit ring. A nil scorecard yields nil, which New skips.
func Scorecard(sc *obs.Scorecard) Subscriber {
	if sc == nil {
		return nil
	}
	return &scorecard{sc: sc}
}

type scorecard struct {
	sc       *obs.Scorecard
	apps     []int  // scorecard app index per harness application
	openLoop []bool // per application, the previous control fact's open-loop flag
}

// audit records d stamped with the fact's step and time.
func (s *scorecard) audit(ev check.Event, d obs.Decision) {
	d.Step, d.TimeSec = ev.Step, ev.TimeSec
	s.sc.Audit().Record(d)
}

func (s *scorecard) Observe(ev check.Event) {
	sc := s.sc
	switch ev.Kind {
	case check.EvInit:
		for _, name := range ev.Apps {
			s.apps = append(s.apps, sc.RegisterApp(name, ev.SetpointSec))
		}
		s.openLoop = make([]bool, len(s.apps))
	case check.EvGuard:
		g := ev.Guard
		sc.RecordDrain(g.Events, g.SameTime)
		if g.Aborted {
			sc.RecordBudgetTrip(g.Wall)
			s.audit(ev, obs.Decision{Component: "guard", Action: "step-abort", Target: "testbed",
				Reason: g.Err.Error(), Value: float64(g.Events), Span: ev.Span})
		}
	case check.EvControl:
		s.control(ev)
	case check.EvConsolidate, check.EvWatchdog:
		s.pass(ev)
	case check.EvCrash:
		c, lost := ev.Crash, len(ev.LostVMs)
		sc.RecordCrash(c.Evacuated, lost)
		reason := "crashed by the fault plane; its VMs were evacuated"
		if c.Lose {
			reason = "crashed by the fault plane; its VMs were lost"
		}
		s.audit(ev, obs.Decision{Component: "fault-plane", Action: "server-crash", Target: c.Server,
			Reason: reason, Value: float64(c.Evacuated + lost)})
	case check.EvStep:
		sc.ObserveStep()
		if ev.HasSLO {
			sc.ObserveSLO(ev.SLOMet)
		}
		if ev.HasPower {
			sc.ObservePower(ev.PowerW)
		}
		if st := ev.Solve; st != (mpc.SolveStats{}) {
			sc.SetMPC(st.Solves, st.WarmAttempts, st.ColdRetries, st.Relaxations, st.Fallbacks)
		}
	case check.EvBreaker:
		s.breaker(ev)
	}
}

// control folds one controller step and audits open-loop transitions.
func (s *scorecard) control(ev check.Event) {
	c := ev.Control
	s.sc.RecordControl(c.Held, c.Dropped, c.OpenLoop, c.HeldStreak)
	if c.HasResidual {
		s.sc.ObserveResidual(c.Residual)
	}
	if c.Index < 0 || c.Index >= len(s.apps) {
		return
	}
	// A held period carries no fresh measurement — it must not produce an
	// SLO sample or a response observation.
	if !c.Held {
		s.sc.ObserveResponse(s.apps[c.Index], c.T90)
	}
	if c.OpenLoop == s.openLoop[c.Index] {
		return
	}
	s.openLoop[c.Index] = c.OpenLoop
	action, reason := "open-loop", "hold window exhausted: frozen at the last-good allocation"
	if !c.OpenLoop {
		action, reason = "close-loop", "valid measurement returned: resuming MPC control"
	}
	s.audit(ev, obs.Decision{Component: "controller", Action: action, Target: c.App,
		Reason: reason, Value: float64(c.HeldStreak), Span: "mpc-" + c.App})
}

// pass folds one consolidation or watchdog pass and audits every server
// it switched on or off. A fact without a before-snapshot that matches
// its data center audits nothing.
func (s *scorecard) pass(ev check.Event) {
	rep := ev.Report
	if ev.Kind == check.EvWatchdog {
		s.sc.AddWatchdogPass(rep.Migrations, rep.FailedMoves, rep.Unresolved, ev.Degraded)
	} else {
		s.sc.AddOptimizerPass(rep.Migrations, rep.Vetoed, rep.FailedMoves, rep.Unresolved, ev.Degraded)
		s.sc.AddSearch(ev.Nodes, ev.Widenings)
	}
	if ev.DC == nil || len(ev.ActiveBefore) != len(ev.DC.Servers) {
		return
	}
	for i, srv := range ev.DC.Servers {
		on := srv.State() == cluster.Active
		if on == ev.ActiveBefore[i] {
			continue
		}
		action, reason := "server-off", "its load was packed onto fewer servers"
		if on {
			action, reason = "server-on", "woken to host re-placed load"
		}
		s.audit(ev, obs.Decision{Component: ev.Policy, Action: action, Target: srv.ID, Reason: reason, Span: ev.Span})
	}
}

// breaker mirrors serve's breaker state and audits every transition.
func (s *scorecard) breaker(ev check.Event) {
	b := ev.Breaker
	s.sc.RecordBreaker(b.State, b.Cooldown)
	if b.State == b.Prev {
		return
	}
	action, reason := "breaker-half-open", "cooldown expired: probing with one real step"
	switch {
	case b.State == obs.BreakerClosed:
		action, reason = "breaker-close", "probe step succeeded"
	case b.State == obs.BreakerOpen && b.Prev == obs.BreakerHalfOpen:
		action, reason = "breaker-open", "probe step failed: cooldown re-armed"
	case b.State == obs.BreakerOpen:
		action, reason = "breaker-open", "consecutive step failures reached the threshold"
	}
	s.audit(ev, obs.Decision{Component: "serve", Action: action, Reason: reason,
		Value: float64(b.ConsecFails), Span: ev.Span})
}
