package cluster

import (
	"encoding/json"
	"io"

	"vdcpower/internal/power"
)

// Snapshot is a serializable image of a data center: server specs,
// power states, frequencies and hosted VMs. Operators dump live state
// through it for inspection (serve's /snapshot, dcsim -snapshot).
type Snapshot struct {
	Servers []ServerSnapshot `json:"servers"`
}

// ServerSnapshot captures one server.
type ServerSnapshot struct {
	ID       string     `json:"id"`
	Spec     power.Spec `json:"spec"`
	Sleeping bool       `json:"sleeping"`
	Failed   bool       `json:"failed,omitempty"`
	Cordoned bool       `json:"cordoned,omitempty"`
	FreqGHz  float64    `json:"freq_ghz"`
	VMs      []VM       `json:"vms"`
}

// Snapshot captures the current state of the data center.
func (dc *DataCenter) Snapshot() Snapshot {
	s := Snapshot{}
	for _, srv := range dc.Servers {
		ss := ServerSnapshot{
			ID:       srv.ID,
			Spec:     srv.Spec,
			Sleeping: srv.state == Sleeping,
			Failed:   srv.state == Failed,
			Cordoned: srv.cordoned,
			FreqGHz:  srv.freq,
		}
		for _, v := range srv.vms {
			ss.VMs = append(ss.VMs, *v)
		}
		s.Servers = append(s.Servers, ss)
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
