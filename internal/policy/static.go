package policy

import (
	"memtis/internal/pebs"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// Static is the no-migration reference policy: pages are placed
// fast-first at allocation time and never move. With FastOnly or
// CapacityOnly it pins all allocations to one tier, which yields the
// paper's all-DRAM and all-NVM baselines used to normalise every figure.
type Static struct {
	Base
	// Pin forces every allocation to one tier; tier.NoTier keeps the
	// default fast-first behaviour.
	Pin tier.ID
	// Label overrides the reported name (e.g. "all-nvm").
	Label string
}

var _ sim.Policy = (*Static)(nil)
var _ sim.Gated = (*Static)(nil)

// NewStatic returns the fast-first, never-migrate policy.
func NewStatic() *Static { return &Static{Pin: tier.NoTier, Label: "static"} }

// NewPinned returns a policy placing every page on the given tier.
func NewPinned(t tier.ID, label string) *Static { return &Static{Pin: t, Label: label} }

// Name implements sim.Policy.
func (s *Static) Name() string { return s.Label }

// PlaceNew implements sim.Policy.
func (s *Static) PlaceNew(huge bool, vpn uint64) tier.ID { return s.Pin }

// OnAccess implements sim.Policy.
func (s *Static) OnAccess(tr vm.TouchResult, vpn uint64, write bool) uint64 { return 0 }

// AccessGate implements sim.Gated: OnAccess never acts, so no page is
// ever trapped.
func (s *Static) AccessGate() (*pebs.Sampler, bool) { return nil, true }

// Capabilities implements sim.Policy: a pinned reference baseline
// deliberately targets one tier regardless of free space and relies on
// the VM's overflow fallback, which it declares via
// sim.CapPinnedPlacement instead of being special-cased by name in the
// conformance suite.
func (s *Static) Capabilities() sim.Capability {
	if s.Pin != tier.NoTier {
		return sim.CapPinnedPlacement
	}
	return 0
}

// Tick implements sim.Policy.
func (s *Static) Tick(now uint64) {}
