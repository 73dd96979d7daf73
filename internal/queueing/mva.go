// Package queueing provides exact Mean Value Analysis (MVA) for closed
// product-form queueing networks of processor-sharing stations with an
// infinite-server think node. The appsim package's discrete-event
// simulator is validated against these analytical results: a multi-tier
// application under N closed-loop clients is exactly such a network
// (PS stations are BCMP type-2, so the product-form solution is exact
// even with non-exponential service demands).
//
// The solver also powers capacity planning helpers: given per-tier
// service demands, what CPU allocation meets a mean response time target
// at a given concurrency?
package queueing

import (
	"errors"
	"fmt"
	"math"

	"vdcpower/internal/units"
)

// Network is a closed queueing network: N clients cycle through a think
// node (mean ThinkTime) and then visit each station once, in sequence.
type Network struct {
	// ThinkTime is the infinite-server node's mean delay (seconds).
	ThinkTime units.Second
	// Demands holds each PS station's mean service demand (seconds) —
	// for a tier, demand in GHz·s divided by the allocation in GHz.
	Demands []units.Second
}

// Validate checks parameters.
func (n *Network) Validate() error {
	if n.ThinkTime < 0 {
		return errors.New("queueing: negative think time")
	}
	if len(n.Demands) == 0 {
		return errors.New("queueing: no stations")
	}
	for i, d := range n.Demands {
		if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("queueing: station %d has invalid demand %v", i, d)
		}
	}
	return nil
}

// Result holds the exact MVA solution at population N.
type Result struct {
	N            int
	Throughput   float64          // clients per second
	ResponseTime units.Second     // total time in stations (excludes think)
	StationResp  []units.Second   // per-station residence time
	QueueLen     []float64        // per-station mean number of clients
	Utilization  []units.Fraction // per-station utilization
}

// Solve runs exact MVA for population n. Complexity O(n · stations).
func Solve(net *Network, n int) (Result, error) {
	if err := net.Validate(); err != nil {
		return Result{}, err
	}
	if n < 0 {
		return Result{}, errors.New("queueing: negative population")
	}
	k := len(net.Demands)
	res := Result{
		N:           n,
		StationResp: make([]units.Second, k),
		QueueLen:    make([]float64, k),
		Utilization: make([]units.Fraction, k),
	}
	q := res.QueueLen // queue lengths at population m-1, and finally at n
	for m := 1; m <= n; m++ {
		total := net.ThinkTime
		for i := 0; i < k; i++ {
			// PS (like FCFS-exponential) residence: service plus the work
			// of customers already there.
			res.StationResp[i] = net.Demands[i] * (1 + q[i])
			total += res.StationResp[i]
		}
		x := float64(m) / total
		for i := 0; i < k; i++ {
			q[i] = x * res.StationResp[i]
		}
		res.Throughput = x
	}
	for i := 0; i < k; i++ {
		res.ResponseTime += res.StationResp[i]
		res.Utilization[i] = res.Throughput * net.Demands[i]
	}
	return res, nil
}

// BottleneckBounds returns the asymptotic bounds of the network: the
// maximum throughput 1/max(D_i) and the response-time asymptote
// N·Dmax − Z for large N (balanced job bounds are not needed here).
func BottleneckBounds(net *Network, n int) (maxThroughput float64, minResponse units.Second, err error) {
	if err := net.Validate(); err != nil {
		return 0, 0, err
	}
	dmax, dsum := 0.0, 0.0
	for _, d := range net.Demands {
		dsum += d
		if d > dmax {
			dmax = d
		}
	}
	maxThroughput = 1 / dmax
	minResponse = math.Max(dsum, float64(n)*dmax-net.ThinkTime)
	return maxThroughput, minResponse, nil
}

// AllocationFor searches for a uniform scaling of CPU allocations that
// achieves the target mean response time at population n, given per-tier
// service demands in GHz·s. It returns the per-tier allocations (GHz)
// scaledAlloc = base · factor where base is proportional to the demand
// (balanced utilization), the paper's intuition that heavier tiers need
// proportionally more CPU. Returns an error if the target is infeasible
// within maxAllocGHz per tier.
func AllocationFor(demandGHzS []units.GHzSecond, thinkTime units.Second, n int, targetResp units.Second, maxAllocGHz units.Hertz) ([]units.Hertz, error) {
	if targetResp <= 0 {
		return nil, errors.New("queueing: nonpositive target")
	}
	if len(demandGHzS) == 0 {
		return nil, errors.New("queueing: no tiers")
	}
	base := make([]units.GHzSecond, len(demandGHzS))
	copy(base, demandGHzS)
	respAt := func(factor float64) (units.Second, error) {
		net := &Network{ThinkTime: thinkTime, Demands: make([]units.Second, len(base))}
		for i, d := range demandGHzS {
			// factor converts a GHz·s demand into a GHz allocation, so
			// the product's dimension is asserted at the boundary.
			alloc := units.Hertz(base[i] * factor)
			net.Demands[i] = d / alloc // GHz·s per GHz: seconds per visit
		}
		r, err := Solve(net, n)
		if err != nil {
			return 0, err
		}
		return r.ResponseTime, nil
	}
	// The response time is decreasing in the scale factor: bisect.
	lo, hi := 1e-3, maxAllocGHz/maxOf(base)
	rHi, err := respAt(hi)
	if err != nil {
		return nil, err
	}
	if rHi > targetResp {
		return nil, fmt.Errorf("queueing: target %vs infeasible even at %v GHz", targetResp, maxAllocGHz)
	}
	for iter := 0; iter < 80; iter++ {
		mid := (lo + hi) / 2
		r, err := respAt(mid)
		if err != nil {
			return nil, err
		}
		if r > targetResp {
			lo = mid
		} else {
			hi = mid
		}
	}
	out := make([]units.Hertz, len(base))
	for i := range out {
		out[i] = base[i] * hi
	}
	return out, nil
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
