// Package serve exposes a running testbed over HTTP: JSON status and
// history, a Prometheus-style metrics endpoint, and control knobs for
// set points and workload levels. cmd/serve wires it to a real listener
// to make the closed-loop behavior of the paper observable interactively.
package serve

import (
	"bytes"
	"encoding/json"
	"log"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vdcpower/internal/check"
	"vdcpower/internal/fault"
	"vdcpower/internal/guard"
	"vdcpower/internal/obs"
	"vdcpower/internal/probe"
	"vdcpower/internal/telemetry"
	"vdcpower/internal/testbed"
	"vdcpower/internal/trace"
)

// Bounds on the control knobs; requests outside them get 400. A NaN,
// infinite or huge set point drives the MPC to non-finite allocations it
// never recovers from, and every client of a concurrency level is
// simulated inside the step, under the mutex.
const (
	maxSetpointSec = 3600
	maxConcurrency = 10_000
)

// logf reports non-fatal serving problems (failed response writes); a
// package variable so tests can capture it.
var logf = log.Printf

// Server owns a testbed and advances it one control period at a time.
// All access — stepping and HTTP handling — is serialized by a mutex:
// the simulator itself is deliberately single-threaded.
type Server struct {
	mu      sync.Mutex
	tb      *testbed.Testbed
	history historyRing // the newest period records, served at /history
	stop    chan struct{}
	wg      sync.WaitGroup
	lastErr error        // most recent step error; nil after a successful step
	step    func() error // Step, indirected so tests can inject failures

	// Degraded mode: the background loop survives step errors, and the
	// breaker decides which ticks run a step (see Start).
	faults     *fault.Injector
	replay     *trace.Feed
	replayProv func() *trace.Provenance // the feed's provenance, set by AttachReplay
	replayDone bool
	totalSteps int // control steps attempted (fault-plane step index)
	breaker    guard.Breaker

	metrics   *telemetry.Registry
	tracer    *telemetry.Tracer
	stepWall  *telemetry.Histogram // wall-clock step latency for /metrics
	stepWallQ *obs.Sketch          // the same samples, for /scorecard quantiles
	stepErrs  *telemetry.Counter
	degraded  *telemetry.Counter
	snapshot  func() (Status, error) // snapshotStatus, indirected so tests can inject failures

	// The probe carries the testbed's facts and the breaker's into the
	// controller-health scorecard and the metrics registry (emitted under
	// the same mutex); /scorecard serves the report.
	probe *probe.Probe
	obs   *obs.Scorecard

	// Bounded execution: each step's event drain runs under guardBudget
	// with the watchdog as its wall-clock deadline, and /health + /status
	// answer from the lock-free live snapshot even while a step holds s.mu.
	guardBudget guard.StepBudget
	watch       guard.Watchdog
	live        atomic.Pointer[liveDoc]
}

// liveDoc is the read model behind /health and /status: rebuilt under
// s.mu at every state change, read without any lock. A wedged or merely
// slow step can therefore never block a readiness probe — the bug that
// motivated the guard layer (DESIGN §14).
type liveDoc struct {
	status Status
	health Health
}

// New wraps an already-constructed testbed and attaches telemetry to it:
// the testbed's controllers, arbitrators, and optimizer record spans on
// sim-time tracks, its facts reach the scorecard and the registry through
// one probe, and the server itself measures the wall-clock cost of each
// control period at this edge.
func New(tb *testbed.Testbed) *Server {
	s := &Server{tb: tb, history: historyRing{max: 2048}}
	s.step = s.Step
	s.snapshot = func() (Status, error) { return s.snapshotStatus(), nil }
	s.metrics = telemetry.NewRegistry()
	s.tracer = tb.AttachTelemetry(0)
	s.stepWall = s.metrics.Histogram("vdcpower_step_wall_seconds",
		"wall-clock latency of one control period (measure, MPC solves, and actuation for every app)",
		telemetry.ExponentialBuckets(1e-4, 4, 10))
	s.stepWallQ = obs.NewSketch()
	s.stepErrs = s.metrics.Counter("vdcpower_step_errors_total",
		"control steps that failed (the background loop continues degraded)")
	s.degraded = s.metrics.Counter("vdcpower_degraded_steps_total",
		"control steps failed or skipped while the loop ran degraded")
	s.obs = obs.New(obs.Config{Label: "serve", SLOTargetSec: tb.Cfg.Setpoint})
	s.probe = probe.New(probe.Scorecard(s.obs), probe.Metrics(s.metrics))
	tb.AttachProbe(s.probe)
	s.publishBreaker(guard.Closed) // the initial state is the breaker's first fact
	s.setGuard(guard.DefaultStepBudget())
	s.refreshLive()
	return s
}

// SetGuard bounds every control step: the event budgets lower onto the
// testbed's kernel drain, and a positive Wall arms the watchdog around
// each step. A zero budget removes every bound (not recommended — it
// restores the pre-guard behavior where a Zeno storm wedges the loop).
func (s *Server) SetGuard(b guard.StepBudget) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setGuard(b)
	s.refreshLive()
}

// setGuard applies the budget; callers hold s.mu (or are New).
func (s *Server) setGuard(b guard.StepBudget) {
	s.guardBudget = b
	var interrupt func() bool
	if b.Wall > 0 {
		interrupt = s.watch.Expired
	}
	s.tb.SetStepBudget(b.DevsBudget(interrupt))
}

// refreshLive rebuilds the lock-free /health + /status snapshot. Callers
// hold s.mu (or are New, before any concurrency exists).
func (s *Server) refreshLive() {
	h := Health{
		Status:              "ok",
		ConsecutiveFailures: s.breaker.Failures(),
		BreakerOpen:         s.breaker.State() != guard.Closed,
		Quarantined:         s.breaker.Quarantined(),
		Steps:               s.totalSteps,
		FaultsInjected:      s.faults.Injected(),
	}
	if s.lastErr != nil {
		h.LastError = s.lastErr.Error()
	}
	if s.lastErr != nil || h.BreakerOpen {
		h.Status = "degraded"
	}
	s.live.Store(&liveDoc{status: s.snapshotStatus(), health: h})
}

// publishBreaker emits the breaker's state as a fact, with prev the
// state before the tick or step it folded: the metrics subscriber mirrors
// it into the state and cooldown gauges and counts transitions, the
// scorecard mirrors it and audits every transition and every quarantine
// entry and exit. Callers hold s.mu.
func (s *Server) publishBreaker(prev int) {
	b := &s.breaker
	s.probe.Emit(check.Event{
		Kind: check.EvBreaker, Step: s.totalSteps, TimeSec: s.tb.Sim.Now(), Span: "serve.step",
		Breaker: check.BreakerObservation{State: b.State(), Prev: prev, Cooldown: b.Cooldown(),
			ConsecFails: b.Failures(), Quarantined: b.Quarantined()},
	})
}

// AttachFaults wires the deterministic fault plane into the server and its
// testbed: each control step first consults the injector's serve plane (an
// injected step error exercises degraded mode end to end), and the testbed
// threads the injector through controllers, arbitrators, and consolidator.
func (s *Server) AttachFaults(inj *fault.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = inj
	s.tb.AttachFaults(inj)
	inj.AttachMetrics(s.metrics)
	s.refreshLive()
}

// AttachReplay drives the applications' client concurrency from a
// replayed trace: each control period pulls one grid step of levels
// from the feed and actuates SetConcurrency before the testbed runs, so
// the loop controls against real (optionally distorted) workload
// instead of the synthetic client mix. prov, when non-nil, reports the
// replay's provenance for the scorecard (cmd/serve passes the stream's
// Provenance); it runs at attach and after every step that pulls from
// the feed, so /scorecard counts the records read so far and ends on the
// final counts. A step with a feed attached allocates the levels slice
// Feed.Step returns, prov's copy and the scorecard's own; a step without
// one allocates none of them. A feed level of -1 holds the app's
// current setting; an exhausted feed holds the last applied levels.
func (s *Server) AttachReplay(feed *trace.Feed, prov func() *trace.Provenance) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replay = feed
	s.replayProv = prov
	s.replayDone = false
	if prov != nil {
		s.obs.SetProvenance(prov())
	}
	s.refreshLive()
}

// applyReplay actuates one grid step of replayed concurrency levels.
// Called under s.mu from Step.
func (s *Server) applyReplay() {
	if s.replay == nil || s.replayDone {
		return
	}
	levels, ok := s.replay.Step()
	if s.replayProv != nil {
		s.obs.SetProvenance(s.replayProv())
	}
	if !ok {
		s.replayDone = true
		if err := s.replay.Err(); err != nil {
			s.obs.Audit().Record(obs.Decision{
				Step: s.totalSteps, TimeSec: s.tb.Sim.Now(),
				Component: "serve", Action: "replay-failed", Reason: err.Error(),
				Span: "serve.replay",
			})
		}
		return
	}
	for i, lvl := range levels {
		if i >= len(s.tb.Apps) || lvl < 0 {
			continue
		}
		s.tb.Apps[i].SetConcurrency(lvl)
	}
}

// Step advances the control loop by one period. The fault plane is
// consulted first: an injected step error fails the period before the
// testbed runs, exactly like a wedged collector or actuator would. The
// period's drain runs under the guard budget with the watchdog armed, so
// a runaway model surfaces as a bounded *guard.StepAbort instead of a
// hang; the periods completed before an abort still land in the history.
func (s *Server) Step() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.refreshLive()
	k := s.totalSteps
	s.totalSteps++
	if err := s.faults.StepError(k); err != nil {
		return err
	}
	s.applyReplay()
	if s.guardBudget.Wall > 0 {
		s.watch.Arm(s.guardBudget.Wall)
		defer s.watch.Disarm()
	}
	start := telemetry.WallClock()
	recs, err := s.tb.Run(s.tb.Cfg.Period, nil)
	for _, rec := range recs {
		s.history.push(rec)
	}
	if err != nil {
		return err
	}
	wall := telemetry.WallClock() - start
	s.stepWall.Observe(wall)
	s.stepWallQ.Observe(wall)
	return nil
}

// Start advances the loop continuously in the background, one control
// period every interval of wall-clock time. Call Stop to halt. A failing
// step no longer kills the loop: the error is retained (LastErr, /status,
// /health report it) and the loop keeps ticking degraded, as the
// guard.Breaker decides. After guard.BreakerThreshold failures since the
// last success the breaker opens — ticks are absorbed for
// guard.BreakerCooldown ticks to let a wedged dependency recover — then a
// single probe step half-opens it; success closes the breaker and clears
// the error, failure re-arms the cooldown, stretched while quarantined.
// Degraded state survives a Stop/Start restart: an open breaker keeps
// cooling down, and only a successful step clears it.
func (s *Server) Start(interval time.Duration) {
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	s.stop = make(chan struct{})
	stop := s.stop
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if !s.allowStep() {
					s.degraded.Inc()
					continue
				}
				s.recordStep(s.step())
			}
		}
	}()
}

// allowStep decides whether this tick runs a real step or is absorbed by
// an open circuit breaker; every tick of an open breaker is a fact, so
// the cooldown gauge moves.
func (s *Server) allowStep() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.refreshLive()
	prev := s.breaker.State()
	run := s.breaker.Tick()
	if prev != guard.Closed {
		s.publishBreaker(prev)
	}
	return run
}

// recordStep folds one step outcome into the breaker, then logs and
// publishes what changed. A failure below the threshold publishes no fact.
func (s *Server) recordStep(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.refreshLive()
	prev := s.breaker.State()
	if err == nil {
		s.lastErr = nil
		wasOpen, wasQuarantined := s.breaker.Succeed()
		if wasOpen {
			logf("serve: circuit breaker closed after successful probe")
		}
		if wasQuarantined {
			logf("serve: quarantine lifted after successful step")
		}
		s.publishBreaker(prev)
		return
	}
	s.lastErr = err
	s.stepErrs.Inc()
	s.degraded.Inc()
	reopened, opened, quarantined := s.breaker.Fail(err)
	switch {
	case reopened:
		logf("serve: circuit breaker probe failed, re-opening: %v", err)
	case opened:
		logf("serve: circuit breaker opened after %d consecutive step failures: %v", s.breaker.Failures(), err)
	default:
		logf("serve: control step failed, continuing degraded: %v", err)
		return
	}
	if quarantined {
		logf("serve: quarantined after repeated budget exhaustion (cooldown stretched to %d ticks)", s.breaker.Cooldown())
	}
	s.publishBreaker(prev)
}

// LastErr returns the most recent step error while the loop is degraded,
// or nil while it is healthy (the error clears on the next good step).
func (s *Server) LastErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Stop halts the background loop and waits for it to exit.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.stop != nil {
		close(s.stop)
		s.stop = nil
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// AppStatus is the per-application slice of the status document.
type AppStatus struct {
	Name        string    `json:"name"`
	SetpointSec float64   `json:"setpoint_sec"`
	T90Sec      float64   `json:"t90_sec"`
	Allocations []float64 `json:"allocations_ghz"`
	Concurrency int       `json:"concurrency"`
}

// Status is the live state document served at /status. LastError is the
// most recent step error while the loop runs degraded, empty while it is
// healthy.
type Status struct {
	SimTimeSec    float64     `json:"sim_time_sec"`
	PowerW        float64     `json:"power_w"`
	ActiveServers int         `json:"active_servers"`
	TotalServers  int         `json:"total_servers"`
	Apps          []AppStatus `json:"apps"`
	LastError     string      `json:"last_error,omitempty"`
}

// snapshotStatus builds the status document under the lock. The apps'
// allocations share one backing array.
func (s *Server) snapshotStatus() Status {
	st := Status{
		SimTimeSec:    s.tb.Sim.Now(),
		PowerW:        s.tb.DC.TotalPower(),
		ActiveServers: s.tb.DC.NumActive(),
		TotalServers:  len(s.tb.DC.Servers),
	}
	if s.lastErr != nil {
		st.LastError = s.lastErr.Error()
	}
	var latest *testbed.PeriodRecord
	if n := s.history.len(); n > 0 {
		latest = s.history.at(n - 1)
	}
	tiers := 0
	for _, app := range s.tb.Apps {
		tiers += app.NumTiers()
	}
	allocs := make([]float64, 0, tiers)
	st.Apps = make([]AppStatus, len(s.tb.Apps))
	for i, app := range s.tb.Apps {
		ctl := s.tb.Controllers[i]
		lo := len(allocs)
		allocs = ctl.AppendDemands(allocs)
		st.Apps[i] = AppStatus{
			Name:        app.Name,
			SetpointSec: ctl.Setpoint(),
			Allocations: allocs[lo:len(allocs):len(allocs)],
			Concurrency: app.Concurrency(),
		}
		if latest != nil {
			st.Apps[i].T90Sec = latest.T90[i]
		}
	}
	return st
}

// Handler returns the HTTP API:
//
//	GET  /health                        readiness: 200 ok / 503 degraded
//	GET  /status                        live state as JSON
//	GET  /history?n=100                 recent per-period records as JSON
//	GET  /metrics                       Prometheus text exposition
//	GET  /trace                         span recording as Chrome-trace JSON
//	GET  /timings                       per-(track, span) timing aggregates
//	GET  /scorecard                     controller-health scorecard as JSON
//	POST /setpoint?app=0&seconds=1.2    retarget one controller
//	POST /concurrency?app=0&level=80    change one app's workload
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Each route gets its own request counter, resolved once here; the
	// route pattern is the label, so cardinality is fixed.
	handle := func(path string, h http.HandlerFunc) {
		c := s.metrics.Counter("vdcpower_http_requests_total", "HTTP requests served, by route",
			telemetry.Label{Key: "path", Value: path})
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			c.Inc()
			h(w, r)
		})
	}
	handle("/health", s.handleHealth)
	handle("/status", s.handleStatus)
	handle("/history", s.handleHistory)
	handle("/metrics", s.handleMetrics)
	handle("/trace", s.handleTrace)
	handle("/timings", s.handleTimings)
	handle("/scorecard", s.handleScorecard)
	handle("/setpoint", s.handleSetpoint)
	handle("/concurrency", s.handleConcurrency)
	handle("/snapshot", s.handleSnapshot)
	handle("/cordon", s.handleCordon)
	handle("/", s.handleDashboard)
	return mux
}

func (s *Server) handleCordon(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	id := r.URL.Query().Get("server")
	state := r.URL.Query().Get("state")
	if state != "on" && state != "off" {
		http.Error(w, "state must be on or off", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	srv := s.tb.DC.Server(id)
	if srv == nil {
		http.Error(w, "unknown server", http.StatusBadRequest)
		return
	}
	if state == "on" {
		srv.Cordon()
	} else {
		srv.Uncordon()
	}
	writeJSON(w, map[string]any{"server": id, "cordoned": srv.Cordoned()})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	snap := s.tb.DC.Snapshot()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if err := snap.WriteJSON(w); err != nil {
		logf("serve: writing snapshot response: %v", err)
	}
}

// Health is the readiness document served at /health: "ok" with HTTP 200
// while the loop is stepping cleanly, "degraded" with HTTP 503 while the
// last step failed or the circuit breaker is open. Probes (Kubernetes-style
// readiness checks, the chaos-smoke CI job) only need the status code.
type Health struct {
	Status              string `json:"status"` // ok | degraded
	ConsecutiveFailures int    `json:"consecutive_failures"`
	BreakerOpen         bool   `json:"breaker_open"`
	Quarantined         bool   `json:"quarantined,omitempty"`
	LastError           string `json:"last_error,omitempty"`
	Steps               int    `json:"steps"`
	FaultsInjected      int    `json:"faults_injected"`
}

// handleHealth answers from the lock-free live snapshot: a readiness
// probe must never wait on s.mu, which a step in flight holds for up to
// its whole budget.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	h := s.live.Load().health
	if h.Status == "degraded" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		if err := json.NewEncoder(w).Encode(h); err != nil {
			logf("serve: writing health response: %v", err)
		}
		return
	}
	writeJSON(w, h)
}

// handleStatus answers from the same lock-free snapshot as /health.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, s.live.Load().status)
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	// The copy is made under s.mu: a step that wraps the ring overwrites
	// the rows held.
	s.mu.Lock()
	recs := s.history.last(n)
	s.mu.Unlock()
	writeJSON(w, recs)
}

// handleMetrics renders the whole registry in Prometheus text format.
// The exposition is built into a buffer first: a snapshot or render
// failure becomes a clean HTTP 500 instead of a half-written body.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	st, err := s.snapshot()
	if err == nil {
		s.publishStatus(st)
	}
	s.mu.Unlock()
	if err != nil {
		http.Error(w, "snapshot failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	var buf bytes.Buffer
	if err := s.metrics.WriteProm(&buf); err != nil {
		http.Error(w, "rendering metrics: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if _, err := w.Write(buf.Bytes()); err != nil {
		logf("serve: writing metrics response: %v", err)
	}
}

// publishStatus refreshes the registry's live gauges from a status
// snapshot. The testbed publishes its own counters and histograms while
// running; these four families mirror the instantaneous state so the
// endpoint is meaningful even before the first background step.
func (s *Server) publishStatus(st Status) {
	s.metrics.Gauge("vdcpower_power_watts", "total data-center power draw").Set(st.PowerW)
	s.metrics.Gauge("vdcpower_active_servers", "servers currently powered on").Set(float64(st.ActiveServers))
	for _, a := range st.Apps {
		l := telemetry.Label{Key: "app", Value: a.Name}
		s.metrics.Gauge("vdcpower_response_time_seconds", "per-application 90-percentile response time", l).Set(a.T90Sec)
		s.metrics.Gauge("vdcpower_setpoint_seconds", "per-application response time target", l).Set(a.SetpointSec)
	}
	if slo := s.obs.SLO(); slo != nil {
		s.metrics.Gauge("vdcpower_slo_burn_fast",
			"fast-window SLO burn rate (windowed bad fraction / error budget)").Set(slo.BurnFast())
		s.metrics.Gauge("vdcpower_slo_burn_slow",
			"slow-window SLO burn rate (windowed bad fraction / error budget)").Set(slo.BurnSlow())
		s.metrics.Gauge("vdcpower_slo_budget_remaining",
			"fraction of the cumulative SLO error budget still unspent").Set(slo.BudgetRemaining())
	}
}

// StepWallQuantiles summarizes the wall-clock step latency from a
// quantile sketch (obs.Sketch, ~5% relative error); zeros while no step
// has run yet.
type StepWallQuantiles struct {
	Count  uint64  `json:"count"`
	P50Sec float64 `json:"p50_sec"`
	P90Sec float64 `json:"p90_sec"`
	P99Sec float64 `json:"p99_sec"`
}

// ScorecardDoc is the /scorecard document: the controller-health report
// with the server-edge step latency appended.
type ScorecardDoc struct {
	obs.Report
	StepWall StepWallQuantiles `json:"step_wall"`
}

func (s *Server) handleScorecard(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	q := s.stepWallQ.Summary()
	doc := ScorecardDoc{Report: s.obs.Report(), StepWall: StepWallQuantiles{Count: q.Count, P50Sec: q.P50, P90Sec: q.P90, P99Sec: q.P99}}
	s.mu.Unlock()
	writeJSON(w, doc)
}

// handleTrace serves the recorded span tracks as a Chrome trace JSON
// document, loadable in chrome://tracing or Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	recs := s.tracer.Snapshot()
	s.mu.Unlock()
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, recs); err != nil {
		http.Error(w, "rendering trace: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(buf.Bytes()); err != nil {
		logf("serve: writing trace response: %v", err)
	}
}

// SpanTiming aggregates every recorded span with one name on one track;
// the dashboard's timing panel renders these rows.
type SpanTiming struct {
	Track    string  `json:"track"`
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	TotalSec float64 `json:"total_sec"`
	MeanSec  float64 `json:"mean_sec"`
	MaxSec   float64 `json:"max_sec"`
}

func (s *Server) handleTimings(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	recs := s.tracer.Snapshot()
	s.mu.Unlock()
	writeJSON(w, aggregateTimings(recs))
}

// aggregateTimings folds raw span records into per-(track, name) rows,
// sorted for stable output. Instant events count occurrences with zero
// accumulated time.
func aggregateTimings(recs []telemetry.SpanRecord) []SpanTiming {
	idx := map[[2]string]int{}
	out := []SpanTiming{}
	for _, rec := range recs {
		k := [2]string{rec.Track, rec.Name}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, SpanTiming{Track: rec.Track, Name: rec.Name})
		}
		out[i].Count++
		out[i].TotalSec += rec.Dur
		if rec.Dur > out[i].MaxSec {
			out[i].MaxSec = rec.Dur
		}
	}
	for i := range out {
		out[i].MeanSec = out[i].TotalSec / float64(out[i].Count)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Track != out[j].Track {
			return out[i].Track < out[j].Track
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func (s *Server) handleSetpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	idx, ok := s.appIndex(w, r)
	if !ok {
		return
	}
	sec, err := strconv.ParseFloat(r.URL.Query().Get("seconds"), 64)
	if err != nil || math.IsNaN(sec) || sec <= 0 || sec > maxSetpointSec {
		http.Error(w, "bad seconds", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.tb.Controllers[idx].SetSetpoint(sec)
	s.refreshLive()
	s.mu.Unlock()
	writeJSON(w, map[string]any{"app": idx, "setpoint_sec": sec})
}

func (s *Server) handleConcurrency(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	idx, ok := s.appIndex(w, r)
	if !ok {
		return
	}
	level, err := strconv.Atoi(r.URL.Query().Get("level"))
	if err != nil || level < 0 || level > maxConcurrency {
		http.Error(w, "bad level", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.tb.Apps[idx].SetConcurrency(level)
	s.refreshLive()
	s.mu.Unlock()
	writeJSON(w, map[string]any{"app": idx, "concurrency": level})
}

// appIndex parses and validates the app query parameter.
func (s *Server) appIndex(w http.ResponseWriter, r *http.Request) (int, bool) {
	idx, err := strconv.Atoi(r.URL.Query().Get("app"))
	if err != nil || idx < 0 || idx >= len(s.tb.Apps) {
		http.Error(w, "bad app index", http.StatusBadRequest)
		return 0, false
	}
	return idx, true
}

// writeJSON encodes v onto the response. Encode errors (a client that
// hung up mid-response, a marshalling bug) cannot be reported to the
// client anymore — the header is already out — so they are logged
// instead of dropped.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logf("serve: writing JSON response: %v", err)
	}
}
