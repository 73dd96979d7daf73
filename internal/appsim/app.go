package appsim

import (
	"fmt"
	"math"
	"math/rand"

	"vdcpower/internal/devs"
)

// TierConfig describes one tier of a multi-tier application.
type TierConfig struct {
	// DemandMean is the mean per-request service demand in GHz·s
	// (e.g. 0.03 means 30M cycles per request).
	DemandMean float64
	// DemandCV is the coefficient of variation of the lognormal demand
	// distribution. Zero means deterministic demands.
	DemandCV float64
	// InitialAllocation is the starting CPU allocation in GHz.
	InitialAllocation float64
}

// Config describes a complete application and its closed-loop workload.
type Config struct {
	Name        string
	Tiers       []TierConfig
	Concurrency int     // number of closed-loop clients (ab -c N)
	ThinkTime   float64 // mean exponential think time, seconds
	Seed        int64
}

// App is a running multi-tier application: a chain of PS-queue tiers
// driven by a closed-loop client population.
type App struct {
	Name   string
	sim    *devs.Simulator
	cfg    Config
	tiers  []*PSQueue
	demand []lognormal // per tier, fitted from cfg.Tiers
	rng    *rand.Rand

	concurrency int
	clients     []*request // closed-loop client slots, indexed by slot
	spare       *request   // free list of open-loop request records
	inFlight    int

	window    []float64 // response times completed in the current period
	drained   []float64 // the buffer the previous drain returned
	completed int
	started   bool
}

// request carries one request through the tier chain. A closed-loop
// client slot owns one record for its lifetime and reuses it for every
// request it issues; open-loop arrivals draw records from the app's free
// list. Each record binds its callbacks once, so a request's trip
// through the tiers allocates nothing.
type request struct {
	app     *App
	slot    int      // closed-loop client slot; -1 for an open-loop arrival
	alive   bool     // closed loop: thinking or in flight, not yet retired
	tier    int      // next tier to visit
	start   float64  // arrival time
	visitFn func()   // r.visit, bound once
	issueFn func()   // r.issue, bound once (closed loop only)
	next    *request // free-list link (open loop only)
}

// New constructs an application. Call Start to launch the clients.
func New(sim *devs.Simulator, cfg Config) *App {
	if len(cfg.Tiers) == 0 {
		//lint:ignore panicpolicy constructor precondition: a tierless application is a programming error
		panic("appsim: application needs at least one tier")
	}
	if cfg.Concurrency < 0 {
		//lint:ignore panicpolicy precondition: negative concurrency is a programming error
		panic("appsim: negative concurrency")
	}
	if cfg.ThinkTime <= 0 {
		cfg.ThinkTime = 1.0
	}
	cfg.Tiers = append([]TierConfig(nil), cfg.Tiers...) // the app owns its tiers
	a := &App{
		Name:        cfg.Name,
		sim:         sim,
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		concurrency: cfg.Concurrency,
	}
	for _, tc := range cfg.Tiers {
		a.tiers = append(a.tiers, NewPSQueue(sim, tc.InitialAllocation))
		a.demand = append(a.demand, fitLognormal(tc))
	}
	return a
}

// lognormal is one tier's fitted demand distribution, exp(mu + sigma·Z)
// with Z standard normal. A tier whose DemandCV is not positive is fixed:
// every demand is exactly mean, and no random number is drawn.
type lognormal struct {
	fixed     bool
	mean      float64
	mu, sigma float64
}

// fitLognormal matches a lognormal to the tier's demand mean and CV. It
// runs when the tier is configured, not per draw.
func fitLognormal(tc TierConfig) lognormal {
	if tc.DemandCV <= 0 {
		return lognormal{fixed: true, mean: tc.DemandMean}
	}
	sigma := math.Sqrt(math.Log(1 + tc.DemandCV*tc.DemandCV))
	return lognormal{mean: tc.DemandMean, mu: math.Log(tc.DemandMean) - sigma*sigma/2, sigma: sigma}
}

// NumTiers returns the number of tiers.
func (a *App) NumTiers() int { return len(a.tiers) }

// Tier exposes tier i's queue (read-mostly; used by monitors and tests).
func (a *App) Tier(i int) *PSQueue { return a.tiers[i] }

// SetAllocation sets the CPU allocation of tier i in GHz. This is the
// control input c_ij of the paper.
func (a *App) SetAllocation(tier int, ghz float64) { a.tiers[tier].SetCapacity(ghz) }

// Allocation returns tier i's current CPU allocation in GHz.
func (a *App) Allocation(tier int) float64 { return a.tiers[tier].Capacity() }

// Allocations returns a copy of all tier allocations.
func (a *App) Allocations() []float64 {
	out := make([]float64, len(a.tiers))
	for i, t := range a.tiers {
		out[i] = t.Capacity()
	}
	return out
}

// Concurrency returns the current client population size.
func (a *App) Concurrency() int { return a.concurrency }

// SetConcurrency changes the client population at run time (the paper's
// workload-increase experiments). Clients occupy slots [0, n). Growth
// spawns a client in every new slot whose previous client has retired;
// one still thinking or in flight simply carries on. Shrinkage retires
// clients as their in-flight requests complete.
func (a *App) SetConcurrency(n int) {
	if n < 0 {
		//lint:ignore panicpolicy precondition: negative concurrency is a programming error
		panic("appsim: negative concurrency")
	}
	old := a.concurrency
	a.concurrency = n
	if !a.started {
		return
	}
	for slot := old; slot < n; slot++ {
		if slot >= len(a.clients) || !a.clients[slot].alive {
			a.spawnClient(slot)
		}
	}
}

// Start launches the closed-loop clients. It is idempotent.
func (a *App) Start() {
	if a.started {
		return
	}
	a.started = true
	for slot := 0; slot < a.concurrency; slot++ {
		a.spawnClient(slot)
	}
}

// newRequest makes a request record and binds its callbacks.
func (a *App) newRequest(slot int) *request {
	r := &request{app: a, slot: slot}
	r.visitFn = r.visit
	if slot >= 0 {
		r.issueFn = r.issue
	}
	return r
}

// spawnClient starts one client slot with an initial randomized think so
// clients do not arrive in lockstep.
func (a *App) spawnClient(slot int) {
	for len(a.clients) <= slot {
		a.clients = append(a.clients, a.newRequest(len(a.clients)))
	}
	c := a.clients[slot]
	c.alive = true
	a.sim.After(a.think(), c.issueFn)
}

// think samples an exponential think time.
func (a *App) think() float64 { return a.rng.ExpFloat64() * a.cfg.ThinkTime }

// issue sends the client's next request through the tier chain, unless
// the slot was retired while the client was thinking.
func (r *request) issue() {
	if r.slot >= r.app.concurrency {
		r.alive = false
		return
	}
	r.app.begin(r)
}

// begin starts r's trip at the first tier.
func (a *App) begin(r *request) {
	r.start = a.sim.Now()
	r.tier = 0
	a.inFlight++
	r.visit()
}

// visit submits the request to its next tier, or finishes it after the
// last one.
func (r *request) visit() {
	a := r.app
	i := r.tier
	if i >= len(a.tiers) {
		r.finish()
		return
	}
	r.tier++
	a.tiers[i].Submit(a.sampleDemand(i), r.visitFn)
}

// finish records the response time. A closed-loop client then thinks
// before its next request, unless its slot was retired meanwhile; an
// open-loop record returns to the free list.
func (r *request) finish() {
	a := r.app
	a.inFlight--
	a.completed++
	a.window = append(a.window, a.sim.Now()-r.start)
	if r.slot < 0 {
		r.next = a.spare
		a.spare = r
		return
	}
	if r.slot >= a.concurrency {
		r.alive = false
		return
	}
	a.sim.After(a.think(), r.issueFn)
}

// sampleDemand draws a lognormal service demand for tier i.
func (a *App) sampleDemand(i int) float64 {
	d := &a.demand[i]
	if d.fixed {
		return d.mean
	}
	return math.Exp(d.mu + d.sigma*a.rng.NormFloat64())
}

// PauseTier stalls tier i for the given duration — the downtime of a
// live migration of the VM hosting that tier.
func (a *App) PauseTier(tier int, seconds float64) { a.tiers[tier].Pause(seconds) }

// SetDemandMean changes tier i's mean per-request service demand (GHz·s)
// at run time — a workload-mix change such as a software update or a
// shift to heavier queries, which alters the plant's gains and motivates
// online re-identification.
func (a *App) SetDemandMean(tier int, mean float64) {
	if mean <= 0 {
		//lint:ignore panicpolicy precondition: service demand must be positive by construction
		panic("appsim: nonpositive demand mean")
	}
	a.cfg.Tiers[tier].DemandMean = mean
	a.demand[tier] = fitLognormal(a.cfg.Tiers[tier])
}

// DemandMean returns tier i's current mean per-request service demand.
func (a *App) DemandMean(tier int) float64 { return a.cfg.Tiers[tier].DemandMean }

// InFlight returns the number of requests currently inside the tiers.
func (a *App) InFlight() int { return a.inFlight }

// Completed returns the total number of completed requests.
func (a *App) Completed() int { return a.completed }

// DrainResponseTimes returns the response times (seconds) completed since
// the previous drain and resets the window. This is the paper's
// application-level response time monitor sampled once per control period.
//
// The result is a view, valid until the next call: the window is double
// buffered, and the next period's samples are written into the buffer
// the previous call returned. Consume or copy it before draining again.
func (a *App) DrainResponseTimes() []float64 {
	w := a.window
	a.window = a.drained[:0]
	a.drained = w
	return w
}

// String identifies the app for logs.
func (a *App) String() string {
	return fmt.Sprintf("app %q (%d tiers, concurrency %d)", a.Name, len(a.tiers), a.concurrency)
}
