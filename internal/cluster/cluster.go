// Package cluster models the virtualized data center of Figure 1: physical
// servers with DVFS and sleep states, VMs with CPU-cycle demands
// determined by the application-level controllers, placement, and live
// migration. It is the substrate both optimizers (IPAC and pMapper)
// operate on.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"vdcpower/internal/power"
	"vdcpower/internal/telemetry"
)

// VM is a virtual machine hosting one tier of one application. Demand is
// the CPU resource requirement in GHz decided by the application-level
// response time controller (the paper's c_ij).
type VM struct {
	ID       string
	App      string // owning application, "" if stand-alone
	Tier     int
	Demand   float64 // GHz
	MemoryGB float64
}

// Validate checks VM parameters.
func (v *VM) Validate() error {
	if v.ID == "" {
		return fmt.Errorf("cluster: VM with empty ID")
	}
	if !(v.Demand >= 0 && v.Demand <= math.MaxFloat64) || !(v.MemoryGB >= 0 && v.MemoryGB <= math.MaxFloat64) {
		return fmt.Errorf("cluster: VM %s has a demand or memory that is not finite and ≥ 0", v.ID)
	}
	return nil
}

// State is a server's power state.
type State int

const (
	// Active means the server is powered on and hosting VMs.
	Active State = iota
	// Sleeping means the server is suspended and consumes only PSleep.
	Sleeping
	// Failed means the server has crashed: it hosts nothing, draws no
	// power, and accepts no placements for the rest of the run.
	Failed
)

func (s State) String() string {
	switch s {
	case Sleeping:
		return "sleeping"
	case Failed:
		return "failed"
	}
	return "active"
}

// Server is one physical machine.
type Server struct {
	ID       string
	Spec     power.Spec
	state    State
	freq     float64 // current per-core frequency (GHz)
	vms      []*VM
	cordoned bool
	owner    *DataCenter // set by NewDataCenter; nil outside a data center
}

// NewServer creates an active server at maximum frequency.
func NewServer(id string, spec power.Spec) *Server {
	if err := spec.Validate(); err != nil {
		//lint:ignore panicpolicy invariant: the fleet is built from the static spec table, an invalid spec is a programming error
		panic(err)
	}
	return &Server{ID: id, Spec: spec, state: Active, freq: spec.MaxFreq}
}

// State returns the current power state.
func (s *Server) State() State { return s.state }

// Freq returns the current per-core frequency in GHz.
func (s *Server) Freq() float64 { return s.freq }

// SetFreq throttles the processor to the given P-state frequency. It
// panics if f is not one of the spec's P-states.
func (s *Server) SetFreq(f float64) {
	for _, ps := range s.Spec.PStates {
		//lint:ignore floatcompare frequencies come verbatim from the P-state table, never computed
		if ps == f {
			s.freq = f
			return
		}
	}
	//lint:ignore panicpolicy documented contract: frequencies must come from the spec's P-state table
	panic(fmt.Sprintf("cluster: server %s: %v GHz is not a P-state", s.ID, f))
}

// ApplyDVFS picks the lowest P-state covering the current aggregate
// demand and applies it — the CPU resource arbitrator's frequency
// decision. It returns the chosen frequency.
func (s *Server) ApplyDVFS() float64 {
	s.freq = s.Spec.LowestFreqFor(s.TotalDemand())
	return s.freq
}

// Sleep suspends the server. It panics if VMs are still hosted: the
// caller must migrate them away first.
func (s *Server) Sleep() {
	if len(s.vms) > 0 {
		//lint:ignore panicpolicy state-machine invariant: sleeping a non-empty server is a scheduler bug
		panic(fmt.Sprintf("cluster: server %s: cannot sleep with %d VMs", s.ID, len(s.vms)))
	}
	s.setState(Sleeping)
}

// Wake powers the server back on at maximum frequency.
func (s *Server) Wake() {
	if s.state == Failed {
		//lint:ignore panicpolicy state-machine invariant: a crashed server stays down for the rest of the run
		panic(fmt.Sprintf("cluster: server %s: cannot wake a failed server", s.ID))
	}
	s.setState(Active)
	s.freq = s.Spec.MaxFreq
}

// setState is the one place a server's power state changes: it marks the
// owning data center's active list stale.
func (s *Server) setState(st State) {
	s.state = st
	if s.owner != nil {
		s.owner.activeOK = false
	}
}

// Cordon marks the server for maintenance: it accepts no new VMs (the
// optimizer drains it with priority) but keeps serving its current ones.
func (s *Server) Cordon() { s.cordoned = true }

// Uncordon returns the server to normal scheduling.
func (s *Server) Uncordon() { s.cordoned = false }

// Cordoned reports whether the server is in maintenance mode.
func (s *Server) Cordoned() bool { return s.cordoned }

// VMs returns the hosted VMs (shared slice: do not mutate).
func (s *Server) VMs() []*VM { return s.vms }

// NumVMs returns the number of hosted VMs.
func (s *Server) NumVMs() int { return len(s.vms) }

// TotalDemand returns the sum of hosted VM CPU demands in GHz.
func (s *Server) TotalDemand() float64 {
	d := 0.0
	for _, v := range s.vms {
		d += v.Demand
	}
	return d
}

// TotalMemory returns the sum of hosted VM memory in GB.
func (s *Server) TotalMemory() float64 {
	m := 0.0
	for _, v := range s.vms {
		m += v.MemoryGB
	}
	return m
}

// Slack returns unallocated CPU capacity at maximum frequency in GHz —
// the quantity Algorithm 1 minimizes.
func (s *Server) Slack() float64 { return s.Spec.Capacity() - s.TotalDemand() }

// Utilization returns demand relative to the capacity available at the
// current frequency.
func (s *Server) Utilization() float64 { return s.utilization(s.TotalDemand()) }

// utilization is Utilization for the total demand.
func (s *Server) utilization(total float64) float64 {
	cap := s.Spec.CapacityAt(s.freq)
	if cap <= 0 {
		return 0
	}
	u := total / cap
	if u > 1 {
		u = 1
	}
	return u
}

// Overloaded reports whether demand exceeds capacity at max frequency.
func (s *Server) Overloaded() bool { return s.OverloadedFor(s.TotalDemand()) }

// OverloadedFor is Overloaded for a caller that has summed the server's
// demand already: total is TotalDemand's value.
func (s *Server) OverloadedFor(total float64) bool { return total > s.Spec.Capacity()+1e-9 }

// Power returns current power draw in watts.
func (s *Server) Power() float64 { return s.PowerFor(s.TotalDemand()) }

// PowerFor is Power for a caller that has summed the server's demand
// already: total is TotalDemand's value.
func (s *Server) PowerFor(total float64) float64 {
	switch s.state {
	case Sleeping:
		return s.Spec.PSleep
	case Failed:
		return 0
	}
	return s.Spec.Power(s.freq, s.utilization(total))
}

// host attaches a VM (internal; use DataCenter.Place / Migrate).
func (s *Server) host(v *VM) { s.vms = append(s.vms, v) }

// unhost detaches a VM.
func (s *Server) unhost(v *VM) bool {
	for i, x := range s.vms {
		if x == v {
			s.vms = append(s.vms[:i], s.vms[i+1:]...)
			return true
		}
	}
	return false
}

// Migration records one VM move for cost accounting.
type Migration struct {
	VM   *VM
	From *Server
	To   *Server
}

// DataCenter is the collection of servers plus a VM→server index and a
// server-ID index.
type DataCenter struct {
	// Servers is the fleet in construction order. No caller appends to it
	// or replaces an element after NewDataCenter: the server-ID index
	// behind Server is built once, from this slice.
	Servers  []*Server
	servers  map[string]*Server      // server ID → server
	index    map[string]*Server      // VM ID → hosting server
	trace    *telemetry.Track        // set via SetTrace; nil keeps tracing off
	inflight map[string]*MigrationTx // VM ID → reserved two-phase migration
	observer func(*MigrationTx)      // set via SetMigrationObserver; may be nil
	byEff    []int                   // ByEfficiency's order, built on first use
	active   []*Server               // Active's list, capacity len(Servers)
	activeOK bool                    // active is current; cleared by every state change
}

// SetTrace implements telemetry.Traceable: migrations, server wakes and
// idle-sleep sweeps record onto tk.
func (dc *DataCenter) SetTrace(tk *telemetry.Track) { dc.trace = tk }

// NewDataCenter builds a data center from servers with unique IDs. A
// server belongs to one data center: one already in another is refused.
func NewDataCenter(servers []*Server) (*DataCenter, error) {
	dc := &DataCenter{
		Servers:  servers,
		servers:  make(map[string]*Server, len(servers)),
		index:    make(map[string]*Server),
		inflight: make(map[string]*MigrationTx),
		active:   make([]*Server, 0, len(servers)),
	}
	for _, s := range servers {
		if dc.servers[s.ID] != nil {
			return nil, fmt.Errorf("cluster: duplicate server ID %q", s.ID)
		}
		if s.owner != nil {
			return nil, fmt.Errorf("cluster: server %q already belongs to a data center", s.ID)
		}
		dc.servers[s.ID] = s
		for _, v := range s.vms {
			dc.index[v.ID] = s
		}
	}
	for _, s := range servers {
		s.owner = dc
	}
	return dc, nil
}

// ByEfficiency returns the indices into Servers ordered most
// power-efficient first (Spec.Efficiency descending, ties by ID): the
// order PAC fills bins in. Efficiency is a constant of a server's spec
// and Servers never changes after NewDataCenter, so the order is built
// once, on the first call, and shared by every later one (do not
// mutate).
func (dc *DataCenter) ByEfficiency() []int {
	if len(dc.byEff) == len(dc.Servers) {
		return dc.byEff
	}
	type key struct {
		eff float64
		i   int
	}
	keys := make([]key, len(dc.Servers))
	for i, s := range dc.Servers {
		keys[i] = key{s.Spec.Efficiency(), i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(b.eff, a.eff); c != 0 {
			return c
		}
		return cmp.Compare(dc.Servers[a.i].ID, dc.Servers[b.i].ID)
	})
	dc.byEff = make([]int, len(keys))
	for j, k := range keys {
		dc.byEff[j] = k.i
	}
	return dc.byEff
}

// Place hosts a previously unplaced VM on srv, waking it if needed.
func (dc *DataCenter) Place(v *VM, srv *Server) error {
	if err := v.Validate(); err != nil {
		return err
	}
	if _, ok := dc.index[v.ID]; ok {
		return fmt.Errorf("cluster: VM %s already placed", v.ID)
	}
	if srv.cordoned {
		return fmt.Errorf("cluster: server %s is cordoned for maintenance", srv.ID)
	}
	if srv.state == Failed {
		return fmt.Errorf("cluster: server %s has failed", srv.ID)
	}
	if srv.state == Sleeping {
		srv.Wake()
		dc.trace.Event("cluster.wake").Str("server", srv.ID).End()
	}
	srv.host(v)
	dc.index[v.ID] = srv
	return nil
}

// HostOf returns the server hosting VM id, or nil.
func (dc *DataCenter) HostOf(id string) *Server { return dc.index[id] }

// Server returns the server with the given ID, or nil.
func (dc *DataCenter) Server(id string) *Server { return dc.servers[id] }

// Remove unplaces a VM entirely (application decommissioned).
func (dc *DataCenter) Remove(v *VM) error {
	src, ok := dc.index[v.ID]
	if !ok {
		return fmt.Errorf("cluster: VM %s is not placed", v.ID)
	}
	src.unhost(v)
	delete(dc.index, v.ID)
	return nil
}

// VMs returns all placed VMs in deterministic (ID) order.
func (dc *DataCenter) VMs() []*VM {
	var out []*VM
	for _, s := range dc.Servers {
		out = append(out, s.vms...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Active returns the servers currently powered on, in Servers order.
// Every sleep, wake or crash marks the list stale, and the next call
// rebuilds it in one walk of the fleet, in place: the slice is shared, and
// no caller may hold it across a state change. Reads allocate nothing.
func (dc *DataCenter) Active() []*Server {
	if !dc.activeOK {
		dc.active = dc.active[:0]
		for _, s := range dc.Servers {
			if s.state == Active {
				dc.active = append(dc.active, s)
			}
		}
		dc.activeOK = true
	}
	return dc.active
}

// NumActive returns the count of active servers.
func (dc *DataCenter) NumActive() int { return len(dc.Active()) }

// TotalPower returns the current total power draw in watts.
func (dc *DataCenter) TotalPower() float64 {
	p := 0.0
	for _, s := range dc.Servers {
		p += s.Power()
	}
	return p
}

// SleepIdle puts every active, empty server to sleep and returns how many
// were suspended.
func (dc *DataCenter) SleepIdle() int {
	n := 0
	for _, s := range dc.Servers {
		if s.state == Active && len(s.vms) == 0 {
			s.Sleep()
			n++
		}
	}
	if n > 0 {
		dc.trace.Event("cluster.sleep_idle").Int("servers", n).End()
	}
	return n
}

// CheckInvariants verifies index consistency and that the active list
// matches a fresh walk of the fleet; tests call it after optimizer passes.
func (dc *DataCenter) CheckInvariants() error {
	count := 0
	for _, s := range dc.Servers {
		for _, v := range s.vms {
			count++
			if dc.index[v.ID] != s {
				return fmt.Errorf("cluster: VM %s hosted on %s but indexed to %v", v.ID, s.ID, dc.index[v.ID])
			}
		}
		if s.state == Sleeping && len(s.vms) > 0 {
			return fmt.Errorf("cluster: sleeping server %s hosts %d VMs", s.ID, len(s.vms))
		}
		if s.state == Failed && len(s.vms) > 0 {
			return fmt.Errorf("cluster: failed server %s hosts %d VMs", s.ID, len(s.vms))
		}
	}
	if count != len(dc.index) {
		return fmt.Errorf("cluster: index has %d entries, servers host %d VMs", len(dc.index), count)
	}
	active, n := dc.Active(), 0
	for _, s := range dc.Servers {
		if s.state != Active {
			continue
		}
		if n >= len(active) || active[n] != s {
			return fmt.Errorf("cluster: active server %s is missing from position %d of the active list", s.ID, n)
		}
		n++
	}
	if n != len(active) {
		return fmt.Errorf("cluster: active list holds %d servers, the fleet has %d active", len(active), n)
	}
	for id, tx := range dc.inflight {
		if dc.index[id] != tx.src {
			return fmt.Errorf("cluster: in-flight migration of VM %s not hosted on its source %s", id, tx.src.ID)
		}
	}
	return nil
}
