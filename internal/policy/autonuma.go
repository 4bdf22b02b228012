package policy

import (
	"memtis/internal/pebs"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// AutoNUMA models Linux's automatic NUMA balancing used as a tiering
// baseline (Table 1): NUMA-hint faults provide recency-only tracking,
// any faulting page on the capacity tier is promoted immediately in the
// fault handler (static threshold of one), and there is no demotion —
// which is why it keeps early-allocated hot pages in the fast tier and
// wins XSBench 1:2 (§6.2.2) but cannot adapt once the fast tier fills.
type AutoNUMA struct {
	Base
	rearmer Rearmer
}

var _ sim.Policy = (*AutoNUMA)(nil)
var _ sim.Gated = (*AutoNUMA)(nil)

// NewAutoNUMA returns the AutoNUMA baseline.
func NewAutoNUMA() *AutoNUMA { return &AutoNUMA{} }

// Name implements sim.Policy.
func (a *AutoNUMA) Name() string { return "autonuma" }

// OnAccess implements sim.Policy.
func (a *AutoNUMA) OnAccess(tr vm.TouchResult, vpn uint64, write bool) uint64 {
	pg := tr.Page
	if tr.Faulted {
		a.Register(pg)
		return 0
	}
	if pg.PFlags&flagArmed == 0 {
		return 0
	}
	pg.PFlags &^= flagArmed
	a.M.AS.SetTrap(pg, false)
	stall := uint64(HintFaultNS)
	if pg.Tier != tier.FastTier {
		// Promote on the critical path; silently skipped when the next
		// tier up is full (AutoNUMA has no demotion to make room). The
		// ns of a fault-aborted promotion still stalls the thread.
		ns, _ := a.MigrateSync(pg, a.M.PromoteTarget(pg.Tier))
		stall += ns
	}
	return stall
}

// AccessGate implements sim.Gated: OnAccess acts only on armed pages,
// which the rearmer traps (the kernel's PROT_NONE hint-fault entry).
func (a *AutoNUMA) AccessGate() (*pebs.Sampler, bool) { return nil, true }

// Tick implements sim.Policy: the gradual hint-fault re-arm sweep.
// Unmapping PTEs for hint faults costs scan work charged to the kernel
// task context (modelled as background CPU).
func (a *AutoNUMA) Tick(now uint64) {
	n := a.rearmer.Advance(&a.Base, now)
	a.BgNS += uint64(n) * ScanPageNS
}
