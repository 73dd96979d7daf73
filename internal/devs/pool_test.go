package devs

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"vdcpower/internal/race"
)

// startPool drains two empty domains and gives the helper that drain
// starts a moment to park, so a test's first real drain can find it.
func startPool() {
	p := NewSimulator()
	p.NewDomain()
	p.NewDomain()
	p.RunUntil(1)
	time.Sleep(time.Millisecond)
}

// meetingDomains returns a parent with two domains whose next events,
// at time 1, wait up to a second for each other: each announces its
// arrival and then waits for the other's. met reports, after the drain,
// which of the two saw the other arrive while it waited.
func meetingDomains() (parent *Simulator, met *[2]bool) {
	parent = NewSimulator()
	met = new([2]bool)
	arrived := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	for i := range arrived {
		parent.NewDomain().Schedule(1, func() {
			close(arrived[i])
			select {
			case <-arrived[1-i]:
				met[i] = true
			case <-time.After(time.Second):
			}
		})
	}
	return parent, met
}

// drainsAtOnce reports whether, in one of a few drains at GOMAXPROCS 2,
// the two meeting domains each saw the other arrive. A helper that is
// not parked when the drain is offered is skipped by design, so a few
// drains are tried; on the sequential loop every one of them fails.
func drainsAtOnce(t *testing.T) bool {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for attempt := 0; attempt < 5; attempt++ {
		startPool()
		parent, met := meetingDomains()
		st, err := parent.RunUntilBudget(1, Budget{})
		if err != nil || st.Events != 2 {
			t.Fatalf("drain: %+v, %v", st, err)
		}
		if met[0] && met[1] {
			return true
		}
	}
	return false
}

// stderrOf returns what f writes to standard error.
func stderrOf(t *testing.T, f func()) string {
	t.Helper()
	file, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	defer func(old *os.File) { os.Stderr = old }(os.Stderr)
	os.Stderr = file
	f()
	out, err := os.ReadFile(file.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// recovered runs f and returns the value of the panic that ended it.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// At GOMAXPROCS 2 the two domains of one drain run at the same time: each
// one's callback sees the other's arrive.
func TestDomainsDrainAtOnce(t *testing.T) {
	if !drainsAtOnce(t) {
		t.Fatal("the two domains never drained at the same time in 5 drains")
	}
}

// A callback that panics inside a domain drained beside the caller
// reaches the caller of RunUntilBudget with the same value, after every
// helper has finished, with the callback's stack on standard error, and
// the next drain works. When both domains panic, the first in creation
// order wins.
func TestDomainPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for attempt := 0; attempt < 5; attempt++ {
		startPool()
		parent, met := meetingDomains()
		for i, d := range parent.domains {
			d.Schedule(1, func() { panicInDomain(i) })
		}
		var got any
		out := stderrOf(t, func() {
			got = recovered(func() { _, _ = parent.RunUntilBudget(1, Budget{}) })
		})
		if got != 0 {
			t.Fatalf("recovered %v, want domain 0's panic value 0", got)
		}
		if !strings.Contains(out, "devs.panicInDomain(") {
			t.Fatalf("standard error does not name the panicking callback:\n%s", out)
		}
		if !met[0] || !met[1] {
			continue // drained in turn
		}
		for _, d := range parent.domains {
			d.Schedule(2, func() {})
		}
		st, err := parent.RunUntilBudget(3, Budget{})
		if err != nil || st.Events != 2 || parent.Now() != 3 || parent.Pending() != 0 {
			t.Fatalf("next drain: %+v, %v, clock %v, %d pending", st, err, parent.Now(), parent.Pending())
		}
		return
	}
	t.Fatal("the two domains never drained at the same time in 5 drains")
}

// panicInDomain panics with v, under a name that a stack can be
// searched for.
func panicInDomain(v any) { panic(v) }

// With one P the caller drains every domain itself, and a panic in one
// of them still reaches it with the same value and the callback's stack
// on standard error, once the later domains have drained too.
func TestDomainPanicStackOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	parent := NewSimulator()
	parent.NewDomain().Schedule(1, func() { panicInDomain("boom") })
	later := false
	parent.NewDomain().Schedule(1, func() { later = true })
	var got any
	out := stderrOf(t, func() {
		got = recovered(func() { _, _ = parent.RunUntilBudget(1, Budget{}) })
	})
	if got != "boom" || !later {
		t.Fatalf("recovered %v, later domain drained %v; want boom, true", got, later)
	}
	if !strings.Contains(out, "devs.panicInDomain(") {
		t.Fatalf("standard error does not name the panicking callback:\n%s", out)
	}
}

// A callback that ends the goroutine draining its domain
// (runtime.Goexit) fails the drain instead of hanging it: on a helper,
// the caller of RunUntilBudget panics with errUnfinished, writing the
// stack to standard error, and the pool starts a helper in place of the
// one that ended. Domain 1's Goexit runs on whichever goroutine claims
// it; when that is the caller, the caller's goroutine ends, as without
// helpers, and the drain is tried again.
func TestDomainGoexitFailsDrain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ended := errors.New("the caller's goroutine ended")
	for attempt := 0; attempt < 10; attempt++ {
		startPool()
		parent, met := meetingDomains()
		parent.domains[1].Schedule(1, runtime.Goexit)
		var v any
		out := stderrOf(t, func() {
			got := make(chan any, 1)
			go func() {
				v := any(ended)
				defer func() { got <- v }()
				v = recovered(func() { _, _ = parent.RunUntilBudget(1, Budget{}) })
			}()
			select {
			case v = <-got:
			case <-time.After(10 * time.Second):
				t.Fatal("the drain hung")
			}
		})
		if v == ended {
			continue
		}
		if v != errUnfinished {
			t.Fatalf("recovered %v, want %v", v, errUnfinished)
		}
		if !met[0] || !met[1] || !strings.Contains(out, "runtime.Goexit()") {
			t.Fatalf("met %v; standard error:\n%s", *met, out)
		}
		if !drainsAtOnce(t) {
			t.Fatal("no helper drained beside the caller after one ended")
		}
		return
	}
	t.Fatal("domain 1 never drained on a helper in 10 drains")
}

// A warmed budgeted drain of a parent with domains allocates nothing
// with the pool's helpers taking part: the drain is handed over as a
// pointer the simulator owns and the results land in its slice. The
// gate counts every allocation of the process over windows of 20 drains,
// and the Go scheduler allocates now and then on its own: a record for
// parking a goroutine (a sudog) when its P's cache of them has run dry,
// since a GC empties the shared cache, or a thread when none is idle. So
// one window in ten must allocate nothing, and a helper must have taken
// each of its 20 drains: a window the caller drained alone shows
// nothing of the parallel path. An allocation in every handed-off drain
// fails every window.
func TestRunUntilBudgetDomainsDrainZeroAllocParallel(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gate not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	parent := NewSimulator()
	domains := []*Simulator{parent, parent.NewDomain(), parent.NewDomain(), parent.NewDomain()}
	at := 0.0
	fn := func() {}
	budget := Budget{MaxEvents: 1 << 30, MaxSameTimeEvents: 1 << 30, Interrupt: func() bool { return false }}
	cycle := func() {
		for i := 0; i < 64; i++ {
			at++
			for _, d := range domains {
				d.Schedule(at, fn)
			}
		}
		st, err := parent.RunUntilBudget(at, budget)
		if err != nil || st.Events != 4*64 {
			t.Fatalf("drain: %+v, %v", st, err)
		}
	}
	for r := 0; r < 200; r++ {
		cycle()
	}
	var counts []string
	for w := 0; w < 10; w++ {
		var before, after runtime.MemStats
		taken := parent.fan.taken
		runtime.ReadMemStats(&before)
		for r := 0; r < 20; r++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		d, n := after.Mallocs-before.Mallocs, parent.fan.taken-taken
		if d == 0 && n == 20 {
			return
		}
		counts = append(counts, fmt.Sprintf("%d allocations, %d handed off", d, n))
	}
	t.Fatalf("no window of 20 budgeted drains over 4 domains was handed off whole without allocating: %s", strings.Join(counts, "; "))
}
