package optimizer

import (
	"fmt"

	"vdcpower/internal/cluster"
)

// DryRun evaluates what a consolidator would do to the data center —
// migrations, active-server change, estimated power delta — without
// touching it. Operators preview a consolidation pass before committing,
// exactly the benefit/cost comparison Section V's cost-aware migration
// calls for at the plan level. It works on a snapshot-restored clone, so
// the clone's VM pointers are distinct from the live ones.
func DryRun(cons Consolidator, dc *cluster.DataCenter) (Report, float64, error) {
	clone, err := cluster.Restore(dc.Snapshot())
	if err != nil {
		return Report{}, 0, fmt.Errorf("optimizer: cloning data center: %w", err)
	}
	before := clone.TotalPower()
	rep, err := cons.Consolidate(clone)
	if err != nil {
		return rep, 0, err
	}
	// Apply the policy's frequency regime to the clone for a fair power
	// estimate.
	for _, s := range clone.ActiveServers() {
		if cons.UsesDVFS() {
			s.ApplyDVFS()
		} else {
			s.SetFreq(s.Spec.MaxFreq)
		}
	}
	powerDelta := clone.TotalPower() - before
	// Rewrite the move records onto the live data center's objects so
	// callers can reason about real VMs and servers.
	for i := range rep.Moves {
		rep.Moves[i] = cluster.Migration{
			VM:   findVM(dc, rep.Moves[i].VM.ID),
			From: dc.Server(rep.Moves[i].From.ID),
			To:   dc.Server(rep.Moves[i].To.ID),
		}
	}
	return rep, powerDelta, nil
}

func findVM(dc *cluster.DataCenter, id string) *cluster.VM {
	host := dc.HostOf(id)
	if host == nil {
		return nil
	}
	for _, v := range host.VMs() {
		if v.ID == id {
			return v
		}
	}
	return nil
}
