package appsim

import "math/rand"

// OpenWorkload drives an App with Poisson arrivals at a configurable
// rate instead of a closed client population — the traffic model of a
// public-facing service whose users do not wait for each other. The
// paper's testbed uses a closed generator (ab); the open generator is
// the natural library extension for Internet-facing workloads and is
// validated against M/G/1-PS theory in the tests.
type OpenWorkload struct {
	app      *App
	rng      *rand.Rand
	rate     float64
	on       bool
	arriveFn func() // o.arrive, bound once
}

// NewOpenWorkload attaches a Poisson source to the app. Arrivals are
// queued on the app's own simulator, with its tiers. The app should be
// constructed with Concurrency 0 so no closed clients compete.
func NewOpenWorkload(app *App, ratePerSec float64, seed int64) *OpenWorkload {
	if ratePerSec <= 0 {
		//lint:ignore panicpolicy precondition: a nonpositive arrival rate is a programming error
		panic("appsim: arrival rate must be positive")
	}
	o := &OpenWorkload{
		app:  app,
		rng:  rand.New(rand.NewSource(seed)),
		rate: ratePerSec,
	}
	o.arriveFn = o.arrive
	return o
}

// Rate returns the current arrival rate (requests/second).
func (o *OpenWorkload) Rate() float64 { return o.rate }

// SetRate changes the arrival rate; it takes effect from the next
// arrival.
func (o *OpenWorkload) SetRate(ratePerSec float64) {
	if ratePerSec <= 0 {
		//lint:ignore panicpolicy precondition: a nonpositive arrival rate is a programming error
		panic("appsim: arrival rate must be positive")
	}
	o.rate = ratePerSec
}

// Start begins generating arrivals. It is idempotent.
func (o *OpenWorkload) Start() {
	if o.on {
		return
	}
	o.on = true
	o.scheduleNext()
}

// Stop halts the source after in-flight requests complete.
func (o *OpenWorkload) Stop() { o.on = false }

func (o *OpenWorkload) scheduleNext() {
	if !o.on {
		return
	}
	o.app.sim.After(o.rng.ExpFloat64()/o.rate, o.arriveFn)
}

// arrive injects one request and draws the next arrival.
func (o *OpenWorkload) arrive() {
	if !o.on {
		return
	}
	o.app.injectRequest()
	o.scheduleNext()
}

// injectRequest pushes one externally-generated request through the tier
// chain, recording its response time in the same window the monitor
// drains.
func (a *App) injectRequest() {
	r := a.spare
	if r == nil {
		r = a.newRequest(-1)
	} else {
		a.spare = r.next
		r.next = nil
	}
	a.begin(r)
}
