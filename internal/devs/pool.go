package devs

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The drain helpers are persistent goroutines, shared by every simulator
// of the process, that drain domains beside the caller of RunUntilBudget.
// Each parks on the unbuffered jobs channel and takes one simulator's
// fanout at a time. The pool starts with the first drain that could use
// it and grows to GOMAXPROCS−1 helpers. It never shrinks and lives as
// long as the process, so a drain hands its domains over without
// starting a goroutine or building a closure. A helper that a callback
// ends (runtime.Goexit) leaves the pool, and a later drain starts
// another in its place.
var (
	jobs = make(chan *fanout)

	poolMu  sync.Mutex
	helpers int // helpers running, guarded by poolMu
)

// grow starts helpers until the pool holds n.
func grow(n int) {
	poolMu.Lock()
	defer poolMu.Unlock()
	for ; helpers < n; helpers++ {
		go func() {
			defer leave()
			for f := range jobs {
				func() {
					defer f.joined.Done()
					f.claim()
				}()
			}
		}()
	}
}

// leave takes an ended helper out of the pool's count.
func leave() {
	poolMu.Lock()
	defer poolMu.Unlock()
	helpers--
}

// errUnfinished is the panic a drain raises on its caller when a
// callback ended a helper's goroutine instead of returning or panicking.
var errUnfinished = errors.New("devs: a callback ended the goroutine draining its domain (runtime.Goexit)")

// fanout is one simulator's drain of its domains as the helpers that
// take it see it: the horizon and budget, the claim index, the join, and
// each domain's result, indexed in creation order.
type fanout struct {
	sim     *Simulator
	t       float64
	b       Budget
	next    atomic.Int32 // next unclaimed domain
	joined  sync.WaitGroup
	results []drained // one per domain; NewDomain keeps the length in step
	taken   int       // hand-offs a helper took, over the simulator's life
}

// drained is one domain's drain: its stats and error, or the value and
// stack of the failure that cut it short.
type drained struct {
	st    DrainStats
	err   error
	panic any
	stack []byte
}

// drainDomains drains every domain of s to t under b and leaves each
// result in s.fan.results. The caller claims domains beside the helpers
// that took the drain, in creation order, and then waits for them.
func (s *Simulator) drainDomains(t float64, b Budget) {
	f := s.fan
	f.handOff(t, b)
	f.claim()
	f.mustJoin()
}

// handOff readies f to drain to t under b and offers it to up to
// min(GOMAXPROCS, domains)−1 helpers. The send does not block, so a
// helper that is not parked is skipped and never waited for: two
// simulators drained at once, or a domain with domains of its own,
// cannot deadlock.
func (f *fanout) handOff(t float64, b Budget) {
	f.t, f.b = t, b
	f.next.Store(0)
	procs := runtime.GOMAXPROCS(0)
	want := min(procs, len(f.results)) - 1
	if want <= 0 {
		return
	}
	grow(procs - 1)
	for ; want > 0; want-- {
		f.joined.Add(1)
		select {
		case jobs <- f:
			f.taken++
		default:
			f.joined.Done()
			return
		}
	}
}

// mustJoin waits for the helpers that took the drain and re-raises the
// first failure, in creation order, that cut a domain's drain short: a
// callback's panic reaches the caller of RunUntilBudget with its value,
// and a callback that ended a helper's goroutine raises errUnfinished.
// The failure's stack goes to standard error first, since the stack of
// the re-raised panic ends here.
func (f *fanout) mustJoin() {
	f.joined.Wait()
	for i := range f.results {
		if r := &f.results[i]; r.panic != nil {
			fmt.Fprintf(os.Stderr, "devs: the drain of domain %d failed: %v\n%s\n", i+1, r.panic, r.stack)
			panic(r.panic)
		}
	}
}

// claim drains unclaimed domains until none is left.
func (f *fanout) claim() {
	for {
		i := int(f.next.Add(1)) - 1
		if i >= len(f.results) {
			return
		}
		f.drainOne(i)
	}
}

// drainOne drains domain i. Its result holds errUnfinished until the
// drain returns, so a callback that ends the goroutine leaves that
// behind, and a panic's value replaces it.
func (f *fanout) drainOne(i int) {
	r := &f.results[i]
	r.panic = errUnfinished
	defer r.catch()
	r.st, r.err = f.sim.domains[i].RunUntilBudget(f.t, f.b)
	r.panic = nil
}

// catch records the value of a panic that cut the drain short, and the
// stack of any failure.
func (r *drained) catch() {
	if v := recover(); v != nil {
		r.panic = v
	}
	if r.panic != nil {
		r.stack = debug.Stack()
	}
}
