package lint

import "testing"

func TestDeterminism(t *testing.T) {
	tests := []struct {
		name    string
		pkgPath string
		src     string
		want    []string // message substrings, in order
	}{
		{
			name:    "wall clock in simulation package",
			pkgPath: "vdcpower/internal/dcsim",
			src: `package dcsim
import "time"
func step() float64 {
	t0 := time.Now()
	return time.Since(t0).Seconds()
}`,
			want: []string{"time.Now", "time.Since"},
		},
		{
			name:    "global rand in simulation package",
			pkgPath: "vdcpower/internal/appsim",
			src: `package appsim
import "math/rand"
func draw() float64 { return rand.Float64() }
func pick(n int) int { return rand.Intn(n) }`,
			want: []string{"rand.Float64", "rand.Intn"},
		},
		{
			name:    "seeded rand is the approved path",
			pkgPath: "vdcpower/internal/dcsim",
			src: `package dcsim
import "math/rand"
func draw(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}`,
			want: nil,
		},
		{
			name:    "global rand in the fault injector",
			pkgPath: "vdcpower/internal/fault",
			src: `package fault
import "math/rand"
func flip(p float64) bool { return rand.Float64() < p }`,
			want: []string{"rand.Float64"},
		},
		{
			name:    "wall clock in a probe subscriber",
			pkgPath: "vdcpower/internal/obs",
			src: `package obs
import "time"
func stamp() int64 { return time.Now().UnixNano() }`,
			want: []string{"time.Now"},
		},
		{
			name:    "global rand in the invariant checker",
			pkgPath: "vdcpower/internal/check",
			src: `package check
import "math/rand"
func sample(n int) int { return rand.Intn(n) }`,
			want: []string{"rand.Intn"},
		},
		{
			name:    "non-simulation package is out of scope",
			pkgPath: "vdcpower/internal/serve",
			src: `package serve
import "time"
func now() time.Time { return time.Now() }`,
			want: nil,
		},
		{
			name:    "duration arithmetic without the clock is fine",
			pkgPath: "vdcpower/internal/queueing",
			src: `package queueing
import "time"
func secs(d time.Duration) float64 { return d.Seconds() }`,
			want: nil,
		},
		{
			name:    "suppressed with reason",
			pkgPath: "vdcpower/internal/testbed",
			src: `package testbed
import "time"
func trace() time.Time {
	//lint:ignore determinism wall-clock used only for log annotation
	return time.Now()
}`,
			want: nil,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := analyzeFixture(t, tt.pkgPath, tt.src, DeterminismAnalyzer())
			wantFindings(t, got, "determinism", tt.want...)
		})
	}
}
