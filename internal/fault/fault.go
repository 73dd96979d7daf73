// Package fault is the deterministic fault-injection plane of the
// two-level power manager: sensor dropouts, outliers and stuck values on
// the response-time measurements, DVFS actuation failures, live-migration
// aborts, transient optimizer errors, whole-server crashes, and serve
// step errors. Harnesses (dcsim, testbed, serve) attach one Injector per
// run; the instrumented layers consult it at each decision point and fall
// back to their graceful-degradation policies when a fault fires.
//
// Two design rules govern the package, mirroring telemetry:
//
//  1. Injection is opt-in and nil-safe. A nil *Injector is a valid
//     disabled plane: every decision method no-ops (no fault) after a
//     single nil check, so production paths pay ~nothing.
//
//  2. Decisions are pure functions of (seed, kind, step, target,
//     attempt), derived by hashing rather than by consuming a shared
//     random stream. Same-seed runs inject byte-identical fault
//     sequences, and adding a new consultation site cannot perturb the
//     decisions of existing ones — the property a shared *rand.Rand
//     cannot give. No math/rand, no wall clock: vdclint's determinism
//     analyzer covers this package.
package fault

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"vdcpower/internal/telemetry"
)

// Kind labels one fault class.
type Kind int

// The fault taxonomy (DESIGN.md §9).
const (
	// None marks "no fault injected" in decision results.
	None Kind = iota
	// SensorDropout replaces a response-time measurement with NaN.
	SensorDropout
	// SensorOutlier multiplies a measurement by OutlierFactor.
	SensorOutlier
	// SensorStuck freezes a sensor at its last value for StuckPeriods.
	SensorStuck
	// DVFSFailure makes a frequency actuation request fail.
	DVFSFailure
	// MigrationAbort aborts a live migration after N pre-copy passes.
	MigrationAbort
	// OptimizerError fails a whole consolidator/watchdog pass.
	OptimizerError
	// ServerCrash fails a server; its VMs are evacuated or lost.
	ServerCrash
	// StepError fails one serve control step.
	StepError
	// BudgetExceeded exhausts a control step's execution budget: the
	// period's event drain is cut short by the guard layer, exercising
	// the step-abort → breaker → quarantine degradation path.
	BudgetExceeded
)

// String names the kind for logs and metric labels.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case SensorDropout:
		return "sensor_dropout"
	case SensorOutlier:
		return "sensor_outlier"
	case SensorStuck:
		return "sensor_stuck"
	case DVFSFailure:
		return "dvfs_failure"
	case MigrationAbort:
		return "migration_abort"
	case OptimizerError:
		return "optimizer_error"
	case ServerCrash:
		return "server_crash"
	case StepError:
		return "step_error"
	case BudgetExceeded:
		return "budget_exceeded"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Record is one injected fault, accumulated in the injector's log and in
// optimizer Reports (the typed FaultLog).
type Record struct {
	Kind   Kind   `json:"kind"`
	Step   int    `json:"step"`
	Target string `json:"target,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// String renders the record on one line.
func (r Record) String() string {
	s := fmt.Sprintf("%s step=%d", r.Kind, r.Step)
	if r.Target != "" {
		s += " target=" + r.Target
	}
	if r.Detail != "" {
		s += " (" + r.Detail + ")"
	}
	return s
}

// Error is a typed injected failure. Degradation layers detect it with
// IsInjected and skip-and-continue; real errors still abort.
type Error struct {
	Kind   Kind
	Step   int
	Target string
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s at step %d (%s)", e.Kind, e.Step, e.Target)
}

// IsInjected reports whether err (or anything it wraps) is an injected
// fault rather than a real failure. A nil error costs no allocation.
func IsInjected(err error) bool {
	if err == nil {
		return false
	}
	var fe *Error
	return errors.As(err, &fe)
}

// Injectable is implemented by components (consolidators, controllers)
// that can consult a fault plane. Harnesses type-assert against it so
// core interfaces stay fault-free, mirroring telemetry.Traceable.
type Injectable interface {
	SetFaults(*Injector)
}

// stuckState tracks one frozen sensor.
type stuckState struct {
	value float64
	left  int // periods the freeze still covers
}

// Injector decides, deterministically, which faults fire where. Construct
// with New; a nil *Injector is a valid disabled plane. The mutex guards
// the log and stuck-sensor state so a serving loop and its HTTP handlers
// may share one injector; decisions themselves are pure and unaffected
// by interleaving.
type Injector struct {
	prof Profile

	mu       sync.Mutex
	step     int
	log      []Record
	injected int
	byKind   map[Kind]int
	stuck    map[string]*stuckState

	metrics  *telemetry.Registry
	counters map[Kind]*telemetry.Counter
}

// New builds an injector for the profile. Invalid profiles are rejected
// by Profile.Validate; New trusts its input (cmd flag parsing validates).
func New(p Profile) *Injector {
	return &Injector{
		prof:   p,
		byKind: map[Kind]int{},
		stuck:  map[string]*stuckState{},
	}
}

// AttachMetrics publishes per-kind injected-fault counters
// (vdcpower_faults_injected_total{kind=...}) into reg. Nil detaches.
func (in *Injector) AttachMetrics(reg *telemetry.Registry) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.metrics = reg
	in.counters = map[Kind]*telemetry.Counter{}
}

// Profile returns the injector's profile (zero Profile when nil).
func (in *Injector) Profile() Profile {
	if in == nil {
		return Profile{}
	}
	return in.prof
}

// SetStep advances the injector's step cursor. Harnesses call it once per
// trace step / control period so consultation sites that do not know the
// step (the optimizer's Consolidate has no step parameter) still make
// step-scoped decisions.
func (in *Injector) SetStep(step int) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.step = step
	in.mu.Unlock()
}

// Step returns the current step cursor.
func (in *Injector) Step() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.step
}

// record logs one injected fault under the mutex.
func (in *Injector) record(r Record) {
	in.mu.Lock()
	in.log = append(in.log, r)
	in.injected++
	in.byKind[r.Kind]++
	reg, counters := in.metrics, in.counters
	if reg != nil {
		c, ok := counters[r.Kind]
		if !ok {
			c = reg.Counter("vdcpower_faults_injected_total",
				"faults injected by the deterministic fault plane, by kind",
				telemetry.Label{Key: "kind", Value: r.Kind.String()})
			counters[r.Kind] = c
		}
		in.mu.Unlock()
		c.Inc()
		return
	}
	in.mu.Unlock()
}

// Injected returns the total number of faults injected so far.
func (in *Injector) Injected() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// InjectedByKind returns the per-kind injection counts (a copy).
func (in *Injector) InjectedByKind() map[Kind]int {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Kind]int, len(in.byKind))
	for k, v := range in.byKind {
		out[k] = v
	}
	return out
}

// Log returns the accumulated fault log (a copy).
func (in *Injector) Log() []Record {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Record(nil), in.log...)
}

// --- deterministic decision hashing -----------------------------------

// decide hashes (seed, kind, step, target, attempt) into [0,1) with
// splitmix64 over an FNV-folded tuple. Each decision point draws from its
// own pure stream: call order cannot perturb outcomes.
func (in *Injector) decide(kind Kind, step int, target string, attempt int) float64 {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211 // FNV-64 prime
	}
	mix(uint64(in.prof.Seed))
	mix(uint64(kind))
	mix(uint64(int64(step)))
	mix(uint64(int64(attempt)))
	for i := 0; i < len(target); i++ {
		mix(uint64(target[i]))
	}
	// splitmix64 finalizer: FNV alone is too linear for threshold tests.
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

// --- sensor faults -----------------------------------------------------

// SensorRead passes one response-time measurement through the fault
// plane. It returns the possibly perturbed value and the fault kind that
// fired (None when untouched). Dropouts return NaN — the controller's
// measurement guard treats NaN as a missing sample. Stuck sensors return
// the value frozen at the first stuck period for StuckPeriods reads.
func (in *Injector) SensorRead(step int, target string, v float64) (float64, Kind) {
	if in == nil {
		return v, None
	}
	p := in.prof.Sensor
	if p.DropoutProb <= 0 && p.OutlierProb <= 0 && p.StuckProb <= 0 {
		return v, None
	}
	// A sensor already stuck keeps returning its frozen value.
	in.mu.Lock()
	if st, ok := in.stuck[target]; ok && st.left > 0 {
		st.left--
		frozen := st.value
		in.mu.Unlock()
		in.record(Record{Kind: SensorStuck, Step: step, Target: target,
			Detail: fmt.Sprintf("frozen at %.4f", frozen)})
		return frozen, SensorStuck
	}
	in.mu.Unlock()
	if in.decide(SensorDropout, step, target, 0) < p.DropoutProb {
		in.record(Record{Kind: SensorDropout, Step: step, Target: target})
		return math.NaN(), SensorDropout
	}
	if in.decide(SensorOutlier, step, target, 0) < p.OutlierProb {
		factor := p.OutlierFactor
		if factor <= 0 {
			factor = defaultOutlierFactor
		}
		in.record(Record{Kind: SensorOutlier, Step: step, Target: target,
			Detail: fmt.Sprintf("x%.1f", factor)})
		return v * factor, SensorOutlier
	}
	if in.decide(SensorStuck, step, target, 0) < p.StuckProb {
		periods := p.StuckPeriods
		if periods <= 0 {
			periods = defaultStuckPeriods
		}
		in.mu.Lock()
		in.stuck[target] = &stuckState{value: v, left: periods - 1}
		in.mu.Unlock()
		in.record(Record{Kind: SensorStuck, Step: step, Target: target,
			Detail: fmt.Sprintf("stuck at %.4f for %d periods", v, periods)})
		return v, SensorStuck
	}
	return v, None
}

// --- DVFS faults -------------------------------------------------------

// DVFSFails reports whether the frequency actuation request for target
// fails this step. The caller applies the degradation policy: keep the
// previous P-state when it still covers demand, else fail safe to the
// maximum frequency (never run below demand because of a failed knob).
func (in *Injector) DVFSFails(step int, target string) bool {
	if in == nil || in.prof.DVFS.FailProb <= 0 {
		return false
	}
	if in.decide(DVFSFailure, step, target, 0) >= in.prof.DVFS.FailProb {
		return false
	}
	in.record(Record{Kind: DVFSFailure, Step: step, Target: target})
	return true
}

// --- migration faults --------------------------------------------------

// MigrationAborts reports whether live-migration attempt number attempt
// (0-based) of vmID aborts mid-copy. Retry loops consult it once per
// attempt; each attempt hashes independently, so a retry can succeed
// deterministically where the first attempt failed.
func (in *Injector) MigrationAborts(vmID string, attempt int) bool {
	if in == nil || in.prof.Migration.AbortProb <= 0 {
		return false
	}
	step := in.Step()
	if in.decide(MigrationAbort, step, vmID, attempt) >= in.prof.Migration.AbortProb {
		return false
	}
	passes := in.prof.Migration.AbortAfterPasses
	if passes <= 0 {
		passes = defaultAbortAfterPasses
	}
	in.record(Record{Kind: MigrationAbort, Step: step, Target: vmID,
		Detail: fmt.Sprintf("attempt %d aborted after %d pre-copy passes, backoff %.1fs",
			attempt, passes, in.MigrationBackoff(attempt))})
	return true
}

// MigrationMaxRetries returns how many retries a failed migration gets
// before the move is abandoned (0 when no fault plane is attached).
func (in *Injector) MigrationMaxRetries() int {
	if in == nil {
		return 0
	}
	if in.prof.Migration.MaxRetries < 0 {
		return 0
	}
	return in.prof.Migration.MaxRetries
}

// MigrationBackoff returns the deterministic exponential backoff (in
// seconds of simulated time) applied before retry attempt (1-based
// doubling from BackoffSec, capped at 8x).
func (in *Injector) MigrationBackoff(attempt int) float64 {
	if in == nil {
		return 0
	}
	base := in.prof.Migration.BackoffSec
	if base <= 0 {
		base = defaultMigrationBackoffSec
	}
	mult := 1.0
	for i := 0; i < attempt && mult < 8; i++ {
		mult *= 2
	}
	return base * mult
}

// --- optimizer faults --------------------------------------------------

// OptimizerError returns a typed injected error when this step's
// consolidator/watchdog pass should fail transiently, nil otherwise.
// Degraded harnesses detect it with IsInjected and skip the pass.
func (in *Injector) OptimizerError(target string) error {
	if in == nil || in.prof.Optimizer.ErrorProb <= 0 {
		return nil
	}
	step := in.Step()
	if in.decide(OptimizerError, step, target, 0) >= in.prof.Optimizer.ErrorProb {
		return nil
	}
	in.record(Record{Kind: OptimizerError, Step: step, Target: target})
	return &Error{Kind: OptimizerError, Step: step, Target: target}
}

// --- server crashes ----------------------------------------------------

// Crash is one server failure decided for a step.
type Crash struct {
	Server string
	Policy CrashPolicy
}

// Crashes returns the servers that crash at this step, drawn from the
// scheduled crash list plus the probabilistic per-server draw over the
// given candidate IDs (callers pass the active servers, in deterministic
// order). Each crash is injected once.
func (in *Injector) Crashes(step int, candidates []string) []Crash {
	if in == nil {
		return nil
	}
	p := in.prof.Crash
	var out []Crash
	policy := p.Policy
	if policy == "" {
		policy = Evacuate
	}
	for _, sc := range p.At {
		if sc.Step != step {
			continue
		}
		pol := sc.Policy
		if pol == "" {
			pol = policy
		}
		srv := sc.Server
		if srv == "" && len(candidates) > 0 {
			// Unnamed scheduled crash: pick deterministically by hash.
			srv = candidates[int(in.decide(ServerCrash, step, "scheduled", 0)*float64(len(candidates)))]
		}
		if srv == "" {
			continue
		}
		in.record(Record{Kind: ServerCrash, Step: step, Target: srv,
			Detail: fmt.Sprintf("scheduled, policy %s", pol)})
		out = append(out, Crash{Server: srv, Policy: pol})
	}
	if p.Prob > 0 {
		for _, id := range candidates {
			if in.decide(ServerCrash, step, id, 0) < p.Prob {
				in.record(Record{Kind: ServerCrash, Step: step, Target: id,
					Detail: fmt.Sprintf("random, policy %s", policy)})
				out = append(out, Crash{Server: id, Policy: policy})
			}
		}
	}
	return out
}

// --- serve step faults -------------------------------------------------

// StepError returns a typed injected error when serve's control step
// number step should fail, nil otherwise. Injection stops after
// Serve.UntilStep (exclusive) when set, so recovery is testable.
func (in *Injector) StepError(step int) error {
	if in == nil || in.prof.Serve.ErrorProb <= 0 {
		return nil
	}
	if in.prof.Serve.UntilStep > 0 && step >= in.prof.Serve.UntilStep {
		return nil
	}
	if in.decide(StepError, step, "serve", 0) >= in.prof.Serve.ErrorProb {
		return nil
	}
	in.record(Record{Kind: StepError, Step: step, Target: "serve"})
	return &Error{Kind: StepError, Step: step, Target: "serve"}
}

// --- guard faults ------------------------------------------------------

// BudgetExhausted reports whether control period number step should run
// with an exhausted execution budget. The harness reacts by draining the
// period under a one-event budget, so the abort travels the real kernel
// trip path rather than a synthetic error. Injection stops after
// Guard.UntilStep (exclusive) when set, so recovery is testable.
func (in *Injector) BudgetExhausted(step int) bool {
	if in == nil || in.prof.Guard.ExhaustProb <= 0 {
		return false
	}
	if in.prof.Guard.UntilStep > 0 && step >= in.prof.Guard.UntilStep {
		return false
	}
	if in.decide(BudgetExceeded, step, "guard", 0) >= in.prof.Guard.ExhaustProb {
		return false
	}
	in.record(Record{Kind: BudgetExceeded, Step: step, Target: "guard"})
	return true
}
