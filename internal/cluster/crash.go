package cluster

// Crash fails a server: its hosted VMs are detached and returned as
// orphans (the harness decides their fate — evacuate or lose, per the
// fault profile's crash policy), any in-flight migration touching the
// server is cancelled, and the server draws no power and accepts no
// placements for the rest of the run. Crashing an already-failed server
// is a no-op returning nil.
func (dc *DataCenter) Crash(srv *Server) []*VM {
	if srv.state == Failed {
		return nil
	}
	// Cancel in-flight migrations from or to the crashed server. A tx
	// sourced here loses its VM with the server (the orphan list carries
	// it); a tx targeting here simply never commits — the VM is untouched
	// on its source.
	for _, tx := range dc.InFlight() {
		if tx.src == srv || tx.dst == srv {
			delete(dc.inflight, tx.vm.ID)
			tx.phase = TxRolledBack
			dc.observe(tx)
		}
	}
	orphans := append([]*VM(nil), srv.vms...)
	for _, v := range orphans {
		delete(dc.index, v.ID)
	}
	srv.vms = nil
	srv.setState(Failed)
	dc.trace.Event("cluster.crash").Str("server", srv.ID).Int("orphans", len(orphans)).End()
	return orphans
}
