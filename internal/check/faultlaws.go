package check

import (
	"fmt"

	"vdcpower/internal/cluster"
)

// noDoublePlacement checks the two-phase migration protocol: while a
// migration is in flight its VM is hosted exactly once, on the source; the
// reported phase matches the actual placement; and no reservation leaks
// past the pass that opened it (every non-migration observation point must
// see an empty in-flight set).
type noDoublePlacement struct{}

func (noDoublePlacement) Name() string { return "cluster/no-double-placement" }

func (noDoublePlacement) Check(ev Event) error {
	if ev.DC == nil {
		return nil
	}
	for _, tx := range ev.DC.InFlight() {
		v, src, dst := tx.VM(), tx.Source(), tx.Target()
		if src == dst {
			return fmt.Errorf("VM %s reserved to migrate onto its own host %s", v.ID, src.ID)
		}
		if host := ev.DC.HostOf(v.ID); host != src {
			hostID := "nowhere"
			if host != nil {
				hostID = host.ID
			}
			return fmt.Errorf("in-flight VM %s hosted on %s, not its source %s", v.ID, hostID, src.ID)
		}
		for _, hosted := range dst.VMs() {
			if hosted == v {
				return fmt.Errorf("in-flight VM %s already hosted on target %s (double placement)", v.ID, dst.ID)
			}
		}
	}
	if ev.Kind != EvMigration {
		if n := len(ev.DC.InFlight()); n > 0 {
			return fmt.Errorf("%d migration reservation(s) leaked past the pass", n)
		}
		return nil
	}
	if m := ev.Migration; m != nil {
		host := ev.DC.HostOf(m.VMID)
		hostID := "nowhere"
		if host != nil {
			hostID = host.ID
		}
		switch m.Phase {
		case string(cluster.TxCommitted):
			if hostID != m.To {
				return fmt.Errorf("committed VM %s hosted on %s, not target %s", m.VMID, hostID, m.To)
			}
		case string(cluster.TxReserved), string(cluster.TxRolledBack):
			if hostID != m.From {
				return fmt.Errorf("%s VM %s hosted on %s, not source %s", m.Phase, m.VMID, hostID, m.From)
			}
		default:
			return fmt.Errorf("unknown migration phase %q for VM %s", m.Phase, m.VMID)
		}
	}
	return nil
}

// holdWindowBounded checks degraded-controller staleness: a controller may
// keep closing the loop on a held measurement only within its hold window;
// once the streak exceeds it, the step must be open-loop (and conversely,
// open-loop must not trigger early — the window exists to ride out short
// dropouts with feedback still engaged).
type holdWindowBounded struct{}

func (holdWindowBounded) Name() string { return "core/hold-window-bounded" }

func (holdWindowBounded) Check(ev Event) error {
	if ev.Kind != EvControl {
		return nil
	}
	c := ev.Control
	if c.HoldWindow <= 0 {
		return fmt.Errorf("controller %s reports no hold window bound", c.App)
	}
	if c.HeldStreak > c.HoldWindow && !c.OpenLoop {
		return fmt.Errorf("controller %s closed the loop on a measurement held %d periods, window %d",
			c.App, c.HeldStreak, c.HoldWindow)
	}
	if c.OpenLoop && c.HeldStreak <= c.HoldWindow {
		return fmt.Errorf("controller %s went open-loop at streak %d, within window %d",
			c.App, c.HeldStreak, c.HoldWindow)
	}
	return nil
}
