package optimizer

import "vdcpower/internal/cluster"

// CostPolicy is the administrator-defined interface of Section V
// ("cost-aware VM migration"): before each migration the optimizer
// compares benefits and costs and the policy decides whether the
// migration is allowed or rejected. Cost structure differs between data
// centers, so policies are pluggable.
type CostPolicy interface {
	// Allow reports whether vm may migrate from→to given the estimated
	// steady-state power benefit in watts.
	Allow(vm *cluster.VM, from, to *cluster.Server, benefitWatts float64) bool
	// Name identifies the policy.
	Name() string
}

// AllowAll performs every requested migration (cost considered
// negligible, e.g. an over-provisioned migration network).
type AllowAll struct{}

// Allow implements CostPolicy.
func (AllowAll) Allow(*cluster.VM, *cluster.Server, *cluster.Server, float64) bool { return true }

// Name implements CostPolicy.
func (AllowAll) Name() string { return "allow-all" }

// DenyAll rejects every migration — the ablation that reduces IPAC to
// DVFS-only management.
type DenyAll struct{}

// Allow implements CostPolicy.
func (DenyAll) Allow(*cluster.VM, *cluster.Server, *cluster.Server, float64) bool { return false }

// Name implements CostPolicy.
func (DenyAll) Name() string { return "deny-all" }

// BandwidthPriced charges each migration in proportion to the VM's memory
// footprint (live migration copies memory over the network — the
// bandwidth bottleneck scenario of Section V) and allows it only when the
// power benefit pays for it.
type BandwidthPriced struct {
	// WattsPerGB converts a VM's memory size into an equivalent power
	// cost. Higher values model a more congested migration network.
	WattsPerGB float64
}

// Allow implements CostPolicy.
func (p BandwidthPriced) Allow(vm *cluster.VM, _, _ *cluster.Server, benefitWatts float64) bool {
	return benefitWatts >= vm.MemoryGB*p.WattsPerGB
}

// Name implements CostPolicy.
func (p BandwidthPriced) Name() string { return "bandwidth-priced" }
