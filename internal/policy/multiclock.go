package policy

import (
	"memtis/internal/pebs"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// MultiClock models Maruf et al.'s MULTI-CLOCK (HPCA'22): page-table
// scanning feeds per-tier CLOCK lists, a page is promoted once its
// reference counter reaches the static threshold of two (recency +
// frequency), and demotion takes CLOCK victims whose reference bits
// have aged out. All migrations run in the background (Table 1:
// critical path "None"). Like Nimble it inherits PT scanning's
// scalability ceiling: the scan interval stretches with the resident
// set.
type MultiClock struct {
	Base
	scanEveryNS uint64
	lastScan    uint64
	promo       []*vm.Page
	hand        int
	reserve     float64
}

var _ sim.Policy = (*MultiClock)(nil)
var _ sim.Gated = (*MultiClock)(nil)

// NewMultiClock returns the MULTI-CLOCK baseline.
func NewMultiClock() *MultiClock {
	return &MultiClock{scanEveryNS: 5_000_000, reserve: 0.02}
}

// Name implements sim.Policy.
func (c *MultiClock) Name() string { return "multi-clock" }

// OnAccess implements sim.Policy: the MMU sets the accessed bit; no
// critical-path work.
func (c *MultiClock) OnAccess(tr vm.TouchResult, vpn uint64, write bool) uint64 {
	if tr.Faulted {
		c.Register(tr.Page)
		tr.Page.P0 = 0
	}
	tr.Page.PFlags |= flagAccessed
	c.M.AS.SetTrap(tr.Page, false)
	return 0
}

// AccessGate implements sim.Gated: OnAccess only sets the accessed
// flag, so a page is trapped exactly while the flag is clear.
func (c *MultiClock) AccessGate() (*pebs.Sampler, bool) { return nil, true }

// Tick implements sim.Policy: harvest accessed bits into 2-bit
// reference counters, collect promotion candidates at the threshold of
// two, and run the background migration pass.
func (c *MultiClock) Tick(now uint64) {
	minInterval := uint64(len(c.Registry)) * ScanPageNS * 3 / 2
	interval := c.scanEveryNS
	if minInterval > interval {
		interval = minInterval
	}
	if now-c.lastScan < interval {
		return
	}
	c.lastScan = now
	c.Compact()
	for _, pg := range c.Registry {
		if pg.PFlags&flagAccessed != 0 {
			pg.PFlags &^= flagAccessed
			c.M.AS.SetTrap(pg, true)
			if pg.P0 < 3 {
				pg.P0++
			}
			if pg.Tier != tier.FastTier && pg.P0 >= 2 && pg.PFlags&flagQueued == 0 {
				pg.PFlags |= flagQueued
				c.promo = append(c.promo, pg)
			}
		} else if pg.P0 > 0 {
			pg.P0-- // age the reference counter
		}
	}
	c.BgNS += uint64(len(c.Registry)) * ScanPageNS
	c.migrate()
}

// migrate promotes threshold-crossers, demoting aged CLOCK victims to
// make room, bounded per scan cycle.
func (c *MultiClock) migrate() {
	budget := uint64(8 << 20)
	for len(c.promo) > 0 && budget > 0 {
		pg := c.promo[0]
		if pg.Dead() || pg.Tier == tier.FastTier || pg.P0 < 2 {
			pg.PFlags &^= flagQueued
			c.promo = c.promo[1:]
			continue
		}
		if !c.M.AS.CanMigrate(pg, tier.FastTier) {
			if !c.demoteOne() {
				break
			}
			continue
		}
		if pg.Bytes() > budget {
			break
		}
		c.promo = c.promo[1:]
		pg.PFlags &^= flagQueued
		if c.MigrateAsync(pg, tier.FastTier) {
			budget -= pg.Bytes()
		}
	}
	reserve := c.HeadroomFrames(c.reserve)
	for c.M.Fast.FreeFrames() < reserve && budget > 0 {
		if !c.demoteOne() {
			return
		}
	}
}

// demoteOne evicts the next fast-tier page whose reference counter has
// aged to zero (CLOCK second chance: non-zero counters are decremented
// and skipped).
func (c *MultiClock) demoteOne() bool {
	if len(c.Registry) == 0 {
		return false
	}
	for tries := 2 * len(c.Registry); tries > 0; tries-- {
		if c.hand >= len(c.Registry) {
			c.hand = 0
		}
		pg := c.Registry[c.hand]
		c.hand++
		if pg.Dead() || pg.Tier != tier.FastTier {
			continue
		}
		if pg.P0 > 0 {
			pg.P0--
			continue
		}
		return c.MigrateAsync(pg, c.M.DemoteTarget(pg.Tier))
	}
	return false
}
