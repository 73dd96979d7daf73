package probe

import (
	"vdcpower/internal/check"
	"vdcpower/internal/telemetry"
)

// Metrics subscribes a metrics registry: facts update the vdcpower_*
// families they bear on. Each instrument resolves once, with its group on
// the group's first fact (so zero-valued series export from the start),
// and is reused after that. A nil registry yields nil, which New skips.
func Metrics(reg *telemetry.Registry) Subscriber {
	if reg == nil {
		return nil
	}
	return &metrics{reg: reg}
}

type metrics struct {
	reg  *telemetry.Registry
	apps []string

	periods, relax *telemetry.Counter
	t90            []*telemetry.Histogram // per application
	power, active  *telemetry.Gauge

	policy                               string // label of passes
	passes, migrations, vetoes, bnbNodes *telemetry.Counter
	watchdogPasses, degradedPasses       *telemetry.Counter
	breakerState, breakerCooldown        *telemetry.Gauge
	breakerTrans                         *telemetry.Counter
}

func (m *metrics) Observe(ev check.Event) {
	switch ev.Kind {
	case check.EvInit:
		m.apps = ev.Apps
	case check.EvGuard:
		// A period's first fact: a period aborted here still exports the group.
		m.periodInstruments()
	case check.EvControl:
		m.periodInstruments()
		c := ev.Control
		m.periods.Inc()
		if c.Relaxed {
			m.relax.Inc()
		}
		if c.Index >= 0 && c.Index < len(m.t90) {
			m.t90[c.Index].Observe(c.T90)
		}
	case check.EvStep:
		m.stepGauges()
		m.power.Set(ev.PowerW)
		m.active.Set(float64(ev.Active))
	case check.EvConsolidate:
		if m.passes == nil || m.policy != ev.Policy {
			m.passes = m.reg.Counter("vdcpower_optimizer_passes_total", "consolidator invocations",
				telemetry.Label{Key: "policy", Value: ev.Policy})
			m.policy = ev.Policy
		}
		m.passes.Inc()
		m.pass(ev)
		m.vetoes.Add(float64(ev.Report.Vetoed))
		m.bnbNodes.Add(float64(ev.Nodes))
	case check.EvWatchdog:
		if m.watchdogPasses == nil {
			m.watchdogPasses = m.reg.Counter("vdcpower_watchdog_passes_total", "on-demand overload reliever invocations")
		}
		m.watchdogPasses.Inc()
		m.pass(ev)
	case check.EvBreaker:
		if m.breakerState == nil {
			m.breakerState = m.reg.Gauge("vdcpower_breaker_state", "circuit breaker state (0 closed, 1 open, 2 half-open)")
			m.breakerCooldown = m.reg.Gauge("vdcpower_breaker_cooldown_ticks", "ticks remaining before the open breaker half-opens (0 while closed)")
			m.breakerTrans = m.reg.Counter("vdcpower_breaker_transitions_total", "circuit breaker state transitions")
		}
		b := ev.Breaker
		m.breakerState.Set(float64(b.State))
		m.breakerCooldown.Set(float64(b.Cooldown))
		if b.State != b.Prev {
			m.breakerTrans.Inc()
		}
	}
}

// pass publishes what consolidation and watchdog passes share.
func (m *metrics) pass(ev check.Event) {
	m.passCounters()
	m.migrations.Add(float64(ev.Report.Migrations))
	if ev.Degraded {
		m.degradedPasses.Inc()
	}
}

func (m *metrics) stepGauges() {
	if m.power == nil {
		m.power = m.reg.Gauge("vdcpower_power_watts", "total data-center power draw")
		m.active = m.reg.Gauge("vdcpower_active_servers", "servers currently powered on")
	}
}

func (m *metrics) passCounters() {
	if m.migrations == nil {
		m.migrations = m.reg.Counter("vdcpower_migrations_total", "VM live migrations committed by the consolidation layer")
		m.vetoes = m.reg.Counter("vdcpower_migration_vetoes_total", "migrations rejected by the cost policy")
		m.bnbNodes = m.reg.Counter("vdcpower_bnb_nodes_total", "Minimum Slack branch-and-bound nodes expanded")
		m.degradedPasses = m.reg.Counter("vdcpower_degraded_passes_total", "optimizer passes skipped on an injected error while the run continued")
	}
}

func (m *metrics) periodInstruments() {
	if m.periods != nil {
		return
	}
	m.periods = m.reg.Counter("vdcpower_control_periods_total", "MPC control periods executed (one per application per period)")
	m.relax = m.reg.Counter("vdcpower_terminal_relaxations_total", "control periods where the MPC relaxed the terminal constraint")
	m.stepGauges()
	m.t90 = make([]*telemetry.Histogram, len(m.apps))
	for i, app := range m.apps {
		m.t90[i] = m.reg.Histogram("vdcpower_t90_seconds", "per-application 90-percentile response time", nil,
			telemetry.Label{Key: "app", Value: app})
	}
}
