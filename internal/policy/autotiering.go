package policy

import (
	"math/bits"

	"memtis/internal/pebs"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// AutoTiering models the OPM/CPM design of Kim et al. (ATC'21): hint
// faults promote any faulting capacity-tier page on the critical path
// (static threshold of one), an N-bit access-history vector per page
// feeds an LFU victim choice for background demotion, and a demotion
// thread keeps a slice of the fast tier free — but that reserve is used
// only for promotions, so fresh allocations land on the capacity tier
// once the fast tier has filled (the behaviour §6.2.6 calls out for
// 603.bwaves's short-lived data).
type AutoTiering struct {
	Base
	rearmer   Rearmer
	reserve   float64 // fast-tier fraction kept free for promotions
	hand      int
	lastEpoch uint64
}

var _ sim.Policy = (*AutoTiering)(nil)
var _ sim.Gated = (*AutoTiering)(nil)

// NewAutoTiering returns the AutoTiering baseline.
func NewAutoTiering() *AutoTiering { return &AutoTiering{reserve: 0.04} }

// Name implements sim.Policy.
func (a *AutoTiering) Name() string { return "autotiering" }

// PlaceNew implements sim.Policy: allocations use the fast tier only
// while it has never filled; the demotion reserve is promotions-only.
// Overflow walks down the hierarchy to the first lower tier with room
// (on the two-tier machine that is always the over-provisioned
// capacity tier, the §6.2.6 behaviour).
func (a *AutoTiering) PlaceNew(huge bool, vpn uint64) tier.ID {
	need := uint64(tier.SubPages)
	if !huge {
		need = 1
	}
	if a.M.Fast.FreeFrames() >= a.FastReserveFrames(a.reserve)+need {
		return tier.FastTier
	}
	for id := tier.CapacityTier; int(id) < a.M.Depth(); id++ {
		if a.M.Tier(id).FreeFrames() >= need {
			return id
		}
	}
	return tier.CapacityTier
}

// OnAccess implements sim.Policy.
func (a *AutoTiering) OnAccess(tr vm.TouchResult, vpn uint64, write bool) uint64 {
	pg := tr.Page
	if tr.Faulted {
		a.Register(pg)
		pg.P0 = 1
		return 0
	}
	if pg.PFlags&flagArmed == 0 {
		return 0
	}
	pg.PFlags &^= flagArmed
	a.M.AS.SetTrap(pg, false)
	pg.P0 |= 1 // set current history bit
	stall := uint64(HintFaultNS)
	if pg.Tier != tier.FastTier {
		ns, _ := a.MigrateSync(pg, a.M.PromoteTarget(pg.Tier))
		stall += ns
	}
	return stall
}

// AccessGate implements sim.Gated: OnAccess acts only on armed pages,
// which the rearmer traps.
func (a *AutoTiering) AccessGate() (*pebs.Sampler, bool) { return nil, true }

// Tick implements sim.Policy: re-arm hint faults, age history vectors
// once per full scan sweep, and run the background LFU demotion thread.
func (a *AutoTiering) Tick(now uint64) {
	n := a.rearmer.Advance(&a.Base, now)
	a.BgNS += uint64(n) * ScanPageNS
	if a.rearmer.SweepEpoch != a.lastEpoch {
		a.lastEpoch = a.rearmer.SweepEpoch
		for _, pg := range a.Registry {
			pg.P0 = (pg.P0 << 1) & 0xFF // 8-bit history window
		}
		a.BgNS += uint64(len(a.Registry)) * 8
	}
	a.demote()
}

// demote keeps the promotion reserve free by evicting the least
// frequently used fast-tier pages (lowest history popcount).
func (a *AutoTiering) demote() {
	reserve := a.FastReserveFrames(a.reserve)
	if a.M.Fast.FreeFrames() >= reserve || len(a.Registry) == 0 {
		return
	}
	// Clock-style partial scan: examine a bounded slice per wake,
	// demoting pages whose LFU count is minimal among those seen.
	scan := len(a.Registry) / 4
	if scan < 64 {
		scan = 64
	}
	for i := 0; i < scan && a.M.Fast.FreeFrames() < reserve; i++ {
		if a.hand >= len(a.Registry) {
			a.hand = 0
		}
		pg := a.Registry[a.hand]
		a.hand++
		if pg.Dead() || pg.Tier != tier.FastTier {
			continue
		}
		if bits.OnesCount64(pg.P0) <= 1 {
			a.MigrateAsync(pg, a.M.DemoteTarget(pg.Tier))
		}
	}
	a.BgNS += uint64(scan) * 20
}
