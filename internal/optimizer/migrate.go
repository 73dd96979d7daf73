package optimizer

import (
	"fmt"

	"vdcpower/internal/cluster"
	"vdcpower/internal/fault"
	"vdcpower/internal/telemetry"
)

// passError draws the fault plane's transient failure for a pass of the
// consolidator named name. An injected one is logged in rep and returned
// typed, so harnesses skip the pass and continue (fault.IsInjected tells
// it from a real error).
func passError(dc *cluster.DataCenter, inj *fault.Injector, name string, rep *Report) error {
	err := inj.OptimizerError(name)
	if err != nil {
		rep.FaultLog = append(rep.FaultLog, fault.Record{Kind: fault.OptimizerError, Step: inj.Step(), Target: name})
		rep.ActiveAfter = dc.NumActive()
	}
	return err
}

// migrateWithRetry performs one planned migration through the two-phase
// protocol under the fault plane: each attempt reserves the target, and an
// injected mid-copy abort rolls the reservation back (the VM stays on the
// source) and retries after the injector's deterministic backoff, up to
// its retry budget. It returns whether the move committed; a non-nil error
// is a real BeginMigration failure (bad plan), never an injected fault.
func migrateWithRetry(dc *cluster.DataCenter, vm *cluster.VM, target *cluster.Server,
	inj *fault.Injector, rep *Report, tk *telemetry.Track) (bool, error) {
	attempts := inj.MigrationMaxRetries() + 1
	for a := 0; a < attempts; a++ {
		tx, err := dc.BeginMigration(vm, target)
		if err != nil {
			return false, err
		}
		if inj.MigrationAborts(vm.ID, a) {
			if rbErr := tx.Rollback(); rbErr != nil {
				return false, rbErr
			}
			//lint:ignore hotalloc fault-injection bookkeeping runs only when a fault fires, off the steady-state path
			rep.FaultLog = append(rep.FaultLog, fault.Record{
				Kind: fault.MigrationAbort, Step: inj.Step(), Target: vm.ID,
				//lint:ignore hotalloc fault-path diagnostic string, built only when an injected abort fires
				Detail: fmt.Sprintf("attempt %d/%d to %s aborted, backoff %.1fs",
					a+1, attempts, target.ID, inj.MigrationBackoff(a)),
			})
			tk.Event("optimizer.migration_abort").Str("vm", vm.ID).
				Str("to", target.ID).Int("attempt", a).End()
			continue
		}
		mig, err := tx.Commit()
		if err != nil {
			return false, err
		}
		//lint:ignore hotalloc per-pass output: the report carries one record per committed migration
		rep.Moves = append(rep.Moves, mig)
		rep.Migrations++
		return true, nil
	}
	rep.FailedMoves++
	tk.Event("optimizer.move_failed").Str("vm", vm.ID).
		Str("to", target.ID).Int("attempts", attempts).End()
	return false, nil
}
