// Package packing provides the vector bin-packing substrate of Section V.
// The VM-server mapping problem is a vector-packing problem (CPU and
// memory dimensions, plus arbitrary administrator constraints), which is
// NP-hard; the package implements the paper's Minimum Slack heuristic
// (Algorithm 1, extended from the minimum-bin-slack algorithm of Fleszar
// & Hindi) along with the first-fit family that pMapper builds on.
//
// Packing operates on plain Item/Bin values so optimizers can plan
// hypothetical placements without mutating the data center; the optimizer
// layer translates plans into live migrations.
package packing

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"vdcpower/internal/telemetry"
	"vdcpower/internal/units"
)

// Item is a VM viewed as a packing item.
type Item struct {
	ID  string
	CPU units.Hertz // demand in GHz
	Mem float64     // memory in GB
}

// Bin is a server viewed as a packing target. Load sums are cached so the
// constraint check is O(1) per candidate — essential when first-fitting
// thousands of VMs over thousands of servers.
type Bin struct {
	ID         string
	CPUCap     units.Hertz
	MemCap     float64
	Efficiency float64 // capacity per watt; callers sort by this
	items      []Item
	cpuUsed    units.Hertz
	memUsed    float64
}

// Items returns the planned load (do not mutate).
func (b *Bin) Items() []Item { return b.items }

// CPUUsed returns the CPU load planned onto the bin.
func (b *Bin) CPUUsed() units.Hertz { return b.cpuUsed }

// MemUsed returns the memory planned onto the bin.
func (b *Bin) MemUsed() float64 { return b.memUsed }

// Slack returns unallocated CPU capacity — the objective Algorithm 1
// minimizes per server.
func (b *Bin) Slack() units.Hertz { return b.CPUCap - b.cpuUsed }

// Add plans an item onto the bin.
func (b *Bin) Add(it Item) {
	b.items = append(b.items, it)
	b.cpuUsed += it.CPU
	b.memUsed += it.Mem
}

// VectorConstraint is the admission rule of Algorithm 1: CPU with
// optional headroom, plus memory ("the memory size of every server should
// be greater than the total memory allocations of the hosted VMs").
type VectorConstraint struct {
	CPUHeadroom units.Fraction // fraction of CPU capacity kept free
}

// Fits reports whether bin b can accept extra on top of its current
// items. It refuses any extra that is not valid.
func (c VectorConstraint) Fits(b *Bin, extra []Item) bool {
	cpu, mem := b.CPUUsed(), b.MemUsed()
	for _, it := range extra {
		if !it.valid() {
			return false
		}
		cpu += it.CPU
		mem += it.Mem
	}
	return cpu <= b.CPUCap*(1-c.CPUHeadroom)+1e-9 && mem <= b.MemCap+1e-9
}

// valid reports whether the item's CPU and memory are finite and ≥ 0.
// The packers plan only valid items: Fits refuses the others, and
// MinimumSlack and FirstFitDecreasing set them aside before they sort.
func (it Item) valid() bool {
	return it.CPU >= 0 && it.CPU <= math.MaxFloat64 && it.Mem >= 0 && it.Mem <= math.MaxFloat64
}

// MinSlackConfig tunes Algorithm 1.
type MinSlackConfig struct {
	// Epsilon is the allowed slack ε: the search exits early once a
	// packing leaves less than ε GHz unallocated.
	Epsilon units.Hertz
	// EpsilonStep is how much ε grows when the node budget is exhausted
	// ("If the algorithm does not finish in certain steps, increase ε by
	// one step").
	EpsilonStep units.Hertz
	// MaxNodes bounds the branch-and-bound search. <= 0 means a default.
	MaxNodes int
	// Trace, when non-nil, records one "packing.minslack" span per call
	// with candidate/node/widening attributes. Nil disables tracing at
	// zero cost; the config is copied by value so harnesses set it once.
	Trace *telemetry.Track
	// Stats, when non-nil, accumulates search totals across calls. The
	// pointer survives config copies, so one counter block can observe a
	// whole consolidation pass.
	Stats *SearchStats
	// Pool, when non-nil, supplies reusable search buffers so repeated
	// calls allocate nothing in steady state (DESIGN §12). Like
	// Stats, the pointer survives config copies. See Pool for the
	// result-ownership consequences.
	Pool *Pool
}

// Pool holds the reusable buffers of Algorithm 1's search — an
// arena for the sort/suffix/stack/best-set state that one MinimumSlack
// call needs — so a consolidator solving one bin after another reuses
// the same backing arrays instead of reallocating them per call. It
// keeps the last candidate list sorted: PAC offers one list to bin
// after bin until a bin takes an item, and a call with the same list,
// bit for bit, skips the sort. It also lends the consolidator's
// planning storage (Plan), so a pass reuses its bin views and item
// lists too.
//
// A Pool serves one search at a time (not safe for concurrent use),
// and when it is set MinSlackResult.Chosen aliases pool-owned memory
// that is only valid until the next MinimumSlack call through the same
// pool; callers that keep it longer must copy. A call without a pool
// searches in a pool of its own, so its result is independently
// allocated.
type Pool struct {
	list   sortedList
	search mbsSearch // its stack and best set keep their storage across calls
	plan   Plan
}

// NewPool returns an empty pool; capacity grows on first use.
func NewPool() *Pool { return &Pool{} }

// Plan is the planning storage of a caller that views many servers as
// bins and packs items onto them, round after round: IPAC's overload
// relief and drain rounds. It is scratch. A Plan lent by a Pool is
// valid until the next Pool.Plan call. Its bin views carry over from
// one lend to the next (View), and only the capacity of its other
// buffers does.
type Plan struct {
	Items   []Item // the items to place
	Targets []*Bin // Targets[i] is the bin Items[i] was planned onto, nil if none
	Rest    []Item // the packer's list of items not yet planned
	views   []*Bin // View's bins, allocated on first use of each index
	held    []bool // held[i]: views[i] still carries the load it was filled with
}

// Plan lends the pool's planning storage with Items emptied. A nil pool
// returns fresh storage, so pool-less callers allocate as they would
// without one.
func (p *Pool) Plan() *Plan {
	if p == nil {
		return &Plan{}
	}
	p.plan.Items = p.plan.Items[:0]
	return &p.plan
}

// View returns planning bin i. Index i is the same bin on every call,
// and it keeps its item storage: a caller that always views its i-th
// server as bin i keeps each bin's storage at that server's high-water
// mark. held reports that the bin still carries the load the caller
// filled it with, neither dropped (Drop) nor forgotten (Forget) since.
// Otherwise View returns it as a zero Bin for the caller to fill, and
// holds it from then on. The load is filled from zero, so the bin's
// sums are those of a new bin filled in the same order, bit for bit.
func (pl *Plan) View(i int) (b *Bin, held bool) {
	if i >= len(pl.views) {
		pl.views = append(pl.views, make([]*Bin, i+1-len(pl.views))...)
		pl.held = append(pl.held, make([]bool, i+1-len(pl.held))...)
	}
	b = pl.views[i]
	if b == nil {
		b = &Bin{}
		pl.views[i] = b
	}
	if pl.held[i] {
		return b, true
	}
	*b = Bin{items: b.items[:0]}
	pl.held[i] = true
	return b, false
}

// Drop tells the plan that view i no longer carries the load it was
// filled with, so the next View returns it zeroed.
func (pl *Plan) Drop(i int) { pl.held[i] = false }

// Forget drops every view.
func (pl *Plan) Forget() { clear(pl.held) }

// SearchStats aggregates Algorithm 1 search effort across calls.
// Harnesses read it via the optional SearchStats() accessor on
// consolidators and publish deltas into the metrics registry.
type SearchStats struct {
	Calls     int // MinimumSlack invocations
	Nodes     int // branch-and-bound nodes expanded
	Widenings int // ε-widenings after the first budget overrun
	Exhausted int // searches hard-stopped by the second overrun
}

// DefaultMinSlackConfig returns the tuning used by the experiments.
func DefaultMinSlackConfig() MinSlackConfig {
	return MinSlackConfig{Epsilon: 0.05, EpsilonStep: 0.1, MaxNodes: 20000}
}

// MinSlackResult reports the outcome of Algorithm 1 for one bin.
type MinSlackResult struct {
	Chosen    []Item      // items to add to the bin (A*)
	Slack     units.Hertz // resulting slack (s*)
	Widened   bool        // ε had to be increased to finish in budget
	Nodes     int         // search nodes explored
	Exhausted bool        // hard-stopped: budget overran even after widening
}

// MinimumSlack selects a subset of candidates that minimizes the bin's
// remaining CPU slack subject to the constraint — Algorithm 1. The bin's
// existing items stay; candidates are not mutated. Invalid candidates
// are set aside before the search and cost it no node.
func MinimumSlack(b *Bin, candidates []Item, c VectorConstraint, cfg MinSlackConfig) MinSlackResult {
	if cfg.MaxNodes <= 0 {
		cfg.MaxNodes = DefaultMinSlackConfig().MaxNodes
	}
	// The search state and the sorted list live in the pool. A call
	// without one gets a pool of its own, so its result aliases memory
	// nothing else holds.
	pool := cfg.Pool
	if pool == nil {
		pool = new(Pool)
	}
	s, l := &pool.search, &pool.list
	l.reuse(candidates)
	*s = mbsSearch{
		// The stack can never exceed the candidate count, so one buffer
		// serves the whole search.
		stack:   growItems(s.stack, len(l.items)),
		items:   l.items,
		cpu:     l.cpu,
		mem:     l.mem,
		suffix:  l.suffix,
		cpuLim:  b.CPUCap*(1-c.CPUHeadroom) + 1e-9,
		memLim:  b.MemCap + 1e-9,
		eps:     cfg.Epsilon,
		epsStep: cfg.EpsilonStep,
		budget:  cfg.MaxNodes,
		best:    b.Slack(),
		bestSet: s.bestSet[:0],
	}
	sp := cfg.Trace.Start("packing.minslack").Int("candidates", len(candidates))
	s.dfs(0, b.Slack(), b.cpuUsed, b.memUsed)
	res := MinSlackResult{Chosen: s.bestSet, Slack: s.best, Widened: s.widened, Nodes: s.nodes, Exhausted: s.exhausted}
	sp.Int("nodes", res.Nodes).Float("slack", res.Slack).
		Bool("widened", res.Widened).Bool("exhausted", res.Exhausted).End()
	if st := cfg.Stats; st != nil {
		st.Calls++
		st.Nodes += res.Nodes
		if res.Widened {
			st.Widenings++
		}
		if res.Exhausted {
			st.Exhausted++
		}
	}
	return res
}

// sortedList is the valid items of a candidate list in MBS exploration
// order — decreasing size first, which prunes the search fastest — with
// the sums and columns the search reads.
type sortedList struct {
	given  []Item        // the list as given; reuse compares against it
	items  []Item        // given's valid items, sorted by compareItems
	suffix []units.Hertz // suffix[i] is the CPU sum of items[i:], for the can't-improve prune
	cpu    []units.Hertz // items' CPU demands
	mem    []float64     // items' memory
}

// reuse makes l the sorted list of candidates, reusing l's buffers. It
// rebuilds l unless l was built from the same list, bit for bit, so a
// list offered to bin after bin is sorted once.
func (l *sortedList) reuse(candidates []Item) {
	if len(l.suffix) > 0 && sameItems(l.given, candidates) {
		return
	}
	l.given = append(l.given[:0], candidates...)
	l.items = l.items[:0]
	for _, it := range candidates {
		if it.valid() {
			l.items = append(l.items, it)
		}
	}
	slices.SortFunc(l.items, compareItems)
	n := len(l.items)
	l.suffix = growHertz(l.suffix, n+1)
	l.cpu = growHertz(l.cpu, n)
	l.mem = growHertz(l.mem, n)
	l.suffix[n] = 0
	for i := n - 1; i >= 0; i-- {
		it := l.items[i]
		l.suffix[i] = l.suffix[i+1] + it.CPU
		l.cpu[i], l.mem[i] = it.CPU, it.Mem
	}
}

// sameItems reports whether a and b hold the same items bit for bit:
// float == would take 0 for -0, whose sums differ in sign.
func sameItems(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].CPU) != math.Float64bits(b[i].CPU) ||
			math.Float64bits(a[i].Mem) != math.Float64bits(b[i].Mem) {
			return false
		}
	}
	return true
}

// compareItems orders items by decreasing CPU demand with an exact ID
// tie-break — the deterministic MBS exploration order. The key is total
// over unique IDs, so the sorted order is unique regardless of the sort
// algorithm.
func compareItems(a, b Item) int {
	//lint:ignore floatcompare exact tie-break for a deterministic sort order
	if a.CPU != b.CPU {
		if a.CPU > b.CPU {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// growHertz returns buf with length n, reusing its backing array when
// the capacity suffices. Contents are unspecified.
func growHertz(buf []units.Hertz, n int) []units.Hertz {
	if cap(buf) < n {
		buf = make([]units.Hertz, n)
	}
	return buf[:n]
}

// growItems returns an empty slice with capacity at least n, reusing
// buf's backing array when it suffices.
func growItems(buf []Item, n int) []Item {
	if cap(buf) < n {
		buf = make([]Item, 0, n)
	}
	return buf[:0]
}

type mbsSearch struct {
	stack     []Item        // the chosen stack
	items     []Item        // the sorted valid candidates
	cpu       []units.Hertz // items' CPU demands
	mem       []float64     // items' memory
	suffix    []units.Hertz
	cpuLim    units.Hertz // VectorConstraint's CPU limit on the bin
	memLim    float64     // VectorConstraint's memory limit on the bin
	eps       units.Hertz
	epsStep   units.Hertz
	budget    int
	nodes     int
	widened   bool
	exhausted bool
	best      units.Hertz
	bestSet   []Item
	done      bool
}

// dfs explores subsets of items[from:] given the current slack and the
// bin's sums cpu and mem with the stack planned on top. Each candidate
// is judged as VectorConstraint.Fits judges it, added to the running
// sums ((used + c1) + …) + ck-1, so it meets exactly the value Fits
// would reach re-summing the whole stack. The sums travel down as
// arguments, so a pop restores them and no rounding drifts in.
//
// Items are valid and sorted by decreasing CPU, so at one level two
// tests are monotone in i:
//   - Once a candidate passes both CPU tests, the raw-slack test and
//     the headroom test, every later one does: cpu+c rounds
//     monotonically in c. The failures form a prefix [from, k), and
//     each costs one node and nothing else.
//   - The prune test slack-suffix[i] >= best, with best fixed, holds on
//     a suffix of i: suffix sums of non-negative values never increase
//     with i under round-to-nearest.
//
// Binary search finds both boundaries, and charge counts the prefix's
// nodes up to the first pruned one at once, widening ε or stopping at
// the node where counting them one by one would.
//
//vdc:hotpath packing/minslack
func (s *mbsSearch) dfs(from int, slack units.Hertz, cpu units.Hertz, mem float64) {
	if s.done {
		return
	}
	if slack < s.best {
		s.best = slack
		s.bestSet = append(s.bestSet[:0], s.stack...)
	}
	if s.best <= s.eps {
		s.done = true // ε-optimal: stop the whole search
		return
	}
	n := len(s.cpu)
	// k: the first candidate that passes both CPU tests.
	lo, hi := from, n
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if c := s.cpu[h]; c > slack+1e-12 || !(cpu+c <= s.cpuLim) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	k := lo
	// The first prune in [from, k), or k.
	lo, hi = from, k
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if slack-s.suffix[h] >= s.best {
			hi = h
		} else {
			lo = h + 1
		}
	}
	if !s.charge(lo-from) || lo < k {
		return
	}
	for i := k; i < n; i++ {
		// Prune: even packing every remaining item cannot beat the best.
		if slack-s.suffix[i] >= s.best {
			return
		}
		if !s.charge(1) {
			return
		}
		c, m := s.cpu[i], s.mem[i]
		if !(mem+m <= s.memLim) {
			continue
		}
		d := len(s.stack)
		s.stack = s.stack[:d+1] // within the capacity MinimumSlack reserved
		s.stack[d] = s.items[i]
		s.dfs(i+1, slack-c, cpu+c, mem+m)
		s.stack = s.stack[:d]
		if s.done {
			return
		}
	}
}

// charge counts n more nodes as if one at a time: at the node that
// overruns the budget it widens ε and doubles the budget, and at the
// second overrun it hard-stops. It reports whether the search goes on.
func (s *mbsSearch) charge(n int) bool {
	for s.nodes+n > s.budget {
		n -= s.budget - s.nodes + 1
		s.nodes = s.budget + 1
		if s.widened {
			s.done = true // second overrun: hard stop with best-so-far
			s.exhausted = true
			return false
		}
		// Out of budget once: widen ε so outstanding branches exit
		// fast, and grant one budget extension.
		s.eps += s.epsStep
		s.widened = true
		s.budget *= 2
		if s.best <= s.eps {
			s.done = true
			return false
		}
	}
	s.nodes += n
	return true
}

// Assignment maps item IDs to bin IDs.
type Assignment map[string]string

// FirstFit places each item, in the given order, onto the first bin that
// admits it, planning the load onto the bins. It returns the assignment
// and the items no bin could take.
func FirstFit(items []Item, bins []*Bin, c VectorConstraint) (Assignment, []Item) {
	asg := Assignment{}
	var unplaced []Item
	for _, it := range items {
		placed := false
		for _, b := range bins {
			if c.Fits(b, []Item{it}) {
				b.Add(it)
				asg[it.ID] = b.ID
				placed = true
				break
			}
		}
		if !placed {
			unplaced = append(unplaced, it)
		}
	}
	return asg, unplaced
}

// FirstFitDecreasing first-fits the valid items in decreasing CPU order
// — the FFD algorithm pMapper's migration phase uses. The invalid items
// follow in their given order; Fits refuses them, so they come back
// unplaced.
func FirstFitDecreasing(items []Item, bins []*Bin, c VectorConstraint) (Assignment, []Item) {
	sorted := make([]Item, 0, len(items))
	for _, it := range items {
		if it.valid() {
			sorted = append(sorted, it)
		}
	}
	slices.SortFunc(sorted, compareItems)
	for _, it := range items {
		if !it.valid() {
			sorted = append(sorted, it)
		}
	}
	return FirstFit(sorted, bins, c)
}

// SortBinsByEfficiency orders bins most-power-efficient first, the
// server ordering both PAC and pMapper start from. Ties break by ID for
// determinism.
func SortBinsByEfficiency(bins []*Bin) {
	sort.Slice(bins, func(i, j int) bool {
		//lint:ignore floatcompare exact tie-break for a deterministic sort order
		if bins[i].Efficiency != bins[j].Efficiency {
			return bins[i].Efficiency > bins[j].Efficiency
		}
		return bins[i].ID < bins[j].ID
	})
}

// Validate checks that an assignment respects the constraint when
// replayed onto fresh bins; tests use it as an oracle.
func Validate(asg Assignment, items []Item, bins []*Bin, c VectorConstraint) error {
	byID := map[string]*Bin{}
	for _, b := range bins {
		byID[b.ID] = &Bin{ID: b.ID, CPUCap: b.CPUCap, MemCap: b.MemCap}
	}
	for _, it := range items {
		binID, ok := asg[it.ID]
		if !ok {
			continue
		}
		b, ok := byID[binID]
		if !ok {
			return fmt.Errorf("packing: assignment names unknown bin %q", binID)
		}
		if !c.Fits(b, []Item{it}) {
			return fmt.Errorf("packing: item %q violates cpu+mem on bin %q", it.ID, binID)
		}
		b.Add(it)
	}
	return nil
}
