package trace

// pace.go is the package's registered wall-clock edge (vdclint:
// wallClockEdges), mirroring internal/bench's sampler.go: replaying a
// trace against real time is the one job that must read the clock, so
// exactly this file holds the reads and sleeps. A Stream never waits;
// a caller that paces calls Wait from its own pull loop, so nothing
// here can change WHAT a replay emits — only when — and same-seed
// replays are byte-identical whether paced at 1x, 1000x, or not at all.

import "time"

// Pacer throttles a replay to real time scaled by a speedup factor: a
// record at sim time t is released no earlier than wall time
// start + t/speedup.
type Pacer struct {
	speedup float64
	started bool
	wall0   time.Time
	sim0    float64
}

// NewPacer builds a pacer; speedup 60 replays one simulated hour per
// wall minute. Nonpositive speedups are rejected by ReplaySpec
// validation; NewPacer treats them as 1.
func NewPacer(speedup float64) *Pacer {
	if speedup <= 0 {
		speedup = 1
	}
	return &Pacer{speedup: speedup}
}

// Wait blocks until the wall clock catches up with simTime/speedup.
// The first call anchors the epoch. Records whose release time already
// passed (a grid flush emitting a batch) do not wait.
func (p *Pacer) Wait(simTime float64) {
	if !p.started {
		p.started = true
		p.wall0 = time.Now()
		p.sim0 = simTime
		return
	}
	due := p.wall0.Add(time.Duration((simTime - p.sim0) / p.speedup * float64(time.Second)))
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
}
