package testbed

import (
	"testing"

	"vdcpower/internal/check"
	"vdcpower/internal/cluster"
	"vdcpower/internal/optimizer"
	"vdcpower/internal/probe"
)

// TestAttachCheckerCleanRun drives the full closed loop — identification,
// MPC control, consolidation, arbitration — under the complete invariant
// registry and requires a spotless verdict.
func TestAttachCheckerCleanRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumApps = 2
	cfg.NumServers = 3
	cfg.IdentPeriods = 60
	cfg.IdentWarmupSec = 20
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachOptimizer(optimizer.NewIPAC(), 5, cluster.DefaultMigrationModel()); err != nil {
		t.Fatal(err)
	}
	c := check.New(check.All()...)
	tb.AttachProbe(probe.New(c))
	if c.Events() == 0 {
		t.Fatal("attaching the probe did not report the baseline placement")
	}
	if _, err := tb.Run(20*cfg.Period, nil); err != nil {
		t.Fatalf("checked run failed: %v", err)
	}
	if c.NumViolations() != 0 {
		t.Fatalf("violations on a healthy testbed: %v", c.Violations())
	}
	// Consolidation periods must have produced consolidate events, not
	// just power accounting.
	if len(tb.OptimizerLogs) == 0 {
		t.Fatal("optimizer never ran; the checker saw no consolidate events")
	}
}

// TestAttachCheckerNilDetaches ensures a nil probe is a true detach —
// the loop keeps running without its former checker observing events.
func TestAttachCheckerNilDetaches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumApps = 1
	cfg.NumServers = 2
	cfg.IdentPeriods = 60
	cfg.IdentWarmupSec = 20
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := check.New(check.ClusterInvariants()...)
	tb.AttachProbe(probe.New(c))
	before := c.Events()
	tb.AttachProbe(nil)
	if _, err := tb.Run(3*cfg.Period, nil); err != nil {
		t.Fatal(err)
	}
	if c.Events() != before {
		t.Fatalf("detached checker still observed events: %d -> %d", before, c.Events())
	}
}
