// Package queueing provides exact Mean Value Analysis (MVA) for closed
// product-form queueing networks of processor-sharing stations with an
// infinite-server think node. The appsim package's discrete-event
// simulator is validated against these analytical results: a multi-tier
// application under N closed-loop clients is exactly such a network
// (PS stations are BCMP type-2, so the product-form solution is exact
// even with non-exponential service demands).
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
