package workload

import (
	"math/rand"

	"memtis/internal/dist"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// blockZipf draws Zipf-skewed indexes over 2MB blocks of a region, with
// the block ranking scattered by a permutation, and a uniform subpage
// offset within the block. Hot data is therefore skewed at huge-page
// granularity (so distribution-aware placement is rewarded) while each
// huge page keeps uniformly-accessed subpages (high utilization — these
// are the workloads MEMTIS should NOT split).
type blockZipf struct {
	r      region
	bperm  perm
	z      *dist.StdZipf
	rng    *rand.Rand
	blocks uint64
}

func newBlockZipf(rng *rand.Rand, s float64, r region) blockZipf {
	blocks := r.pages / tier.SubPages
	if blocks < 1 {
		blocks = 1
	}
	return blockZipf{r: r, bperm: newPerm(rng, blocks), z: newZipf(rng, s, blocks), rng: rng, blocks: blocks}
}

func (b blockZipf) next() uint64 {
	blk := b.bperm.zipfAt(b.z.Uint64())
	off := b.rng.Uint64() % tier.SubPages
	return b.r.vpnAt(blk*tier.SubPages + off)
}

// buildGraph500 models Graph500 (§6.2.1): edge-list generation writes a
// large region frequently, then BFS hammers a small vertex set (hot,
// dense) while probing edges with block-level skew. The vertex region
// is allocated after the graph, so tiering systems must earn its
// placement by migrating.
func buildGraph500(c *ctx) Stream {
	small := c.reserveSmall(c.spec.SmallBytes())
	main := c.spec.RSSBytes() - c.spec.SmallBytes()
	edges := c.reserve(main * 90 / 100)
	vertices := c.reserve(main * 10 / 100)
	c.touchSmall(small)
	c.touchAll(edges)
	// Generation phase: another sequential write sweep over the edge
	// region (frequent large-region accesses) for ~12% of the budget,
	// counted in the space's accesses from where the phase starts.
	var gi uint64
	c.segs = append(c.segs, func(done uint64) (uint64, Stream) {
		return done + c.budget*12/100, Steps(func() (uint64, bool) {
			gi++
			return edges.vpnAt(gi - 1), true
		})
	})
	c.touchAll(vertices)
	zv := newZipf(c.rng, 1.25, vertices.pages)
	ze := newBlockZipf(c.rng, 1.45, edges)
	smallStep := smallStepper(c, small)
	return Steps(func() (uint64, bool) {
		switch r := c.rng.Uint32() % 1000; {
		case r < 550:
			return vertices.vpnAt(zv.Uint64()), c.pick(1, 3)
		case r < 998:
			return ze.next(), false
		default:
			return smallStep()
		}
	})
}

// buildPageRank models GAP PageRank on the Twitter graph (§6.2.1): the
// graph loads first (filling the fast tier with soon-cold edges), then
// iterations stream the edge list while updating a small, persistently
// hot rank vector. The explicit hot set (rank vector) is well below the
// fast tier size, reproducing HeMem's Figure 2 pathology; the streamed
// edges bait recency-based systems into promotion churn.
func buildPageRank(c *ctx) Stream {
	small := c.reserveSmall(c.spec.SmallBytes())
	main := c.spec.RSSBytes() - c.spec.SmallBytes()
	edges := c.reserve(main * 88 / 100)
	ranks := c.reserve(main * 12 / 100)
	c.touchSmall(small)
	c.touchAll(edges)
	c.touchAll(ranks)
	var cursor uint64
	zr := newZipf(c.rng, 1.05, ranks.pages)
	smallStep := smallStepper(c, small)
	return Steps(func() (uint64, bool) {
		switch r := c.rng.Uint32() % 1000; {
		case r < 420:
			cursor++
			return edges.vpnAt(cursor), false
		case r < 998:
			return ranks.vpnAt(zr.Uint64()), c.pick(1, 2)
		default:
			return smallStep()
		}
	})
}

// buildXSBench models the Monte Carlo neutron transport kernel
// (§6.2.2): one region allocated and touched early whose first ~35%
// (the unionized energy grid) is very hot, with block-level skew inside
// it. The hot region exceeds the fast tier except at 1:2, and because
// it is allocated early, AutoNUMA's no-demotion placement happens to
// work well at 1:2 — exactly the paper's observation.
func buildXSBench(c *ctx) Stream {
	main := c.reserve(c.spec.RSSBytes())
	c.touchAll(main)
	hotPages := main.pages * 35 / 100
	hot := region{r: vm.Region{BaseVPN: main.r.BaseVPN, Pages: hotPages}, pages: hotPages}
	zh := newBlockZipf(c.rng, 1.30, hot)
	return Steps(func() (uint64, bool) {
		if c.pick(88, 100) {
			return zh.next(), c.pick(1, 10)
		}
		return main.r.BaseVPN + hotPages + c.rng.Uint64()%(main.pages-hotPages), false
	})
}

// buildLiblinear models linear classification over KDD12 (§6.2.3): the
// feature matrix loads first; training then revisits feature blocks
// with block-level skew while a compact model region (allocated after
// the data) stays hot. Hot huge pages exhibit high utilization
// (Figure 3a), so MEMTIS keeps them whole.
func buildLiblinear(c *ctx) Stream {
	small := c.reserveSmall(c.spec.SmallBytes())
	main := c.spec.RSSBytes() - c.spec.SmallBytes()
	features := c.reserve(main * 92 / 100)
	model := c.reserve(main * 8 / 100)
	c.touchSmall(small)
	c.touchAll(features)
	c.touchAll(model)
	var cursor uint64
	zf := newBlockZipf(c.rng, 1.40, features)
	zm := newZipf(c.rng, 1.15, model.pages)
	smallStep := smallStepper(c, small)
	return Steps(func() (uint64, bool) {
		switch r := c.rng.Uint32() % 1000; {
		case r < 240:
			cursor++
			return features.vpnAt(cursor), false
		case r < 660:
			return zf.next(), false
		case r < 998:
			return model.vpnAt(zm.Uint64()), c.pick(3, 10)
		default:
			return smallStep()
		}
	})
}

// buildSilo models the Silo in-memory database under YCSB-C (§6.2.4):
// Zipfian lookups over hash-scattered records at 4KB granularity, so
// each huge page holds only a few hot subpages (Figure 3b) — the
// showcase for skewness-aware splitting. Every subpage is written
// during population, so splitting reclaims no memory (no bloat).
func buildSilo(c *ctx) Stream {
	small := c.reserveSmall(c.spec.SmallBytes())
	heap := c.reserve(c.spec.RSSBytes() - c.spec.SmallBytes())
	c.touchSmall(small)
	c.touchAll(heap) // populate: all subpages written
	pm := newPerm(c.rng, heap.pages)
	z := newZipf(c.rng, 1.15, heap.pages)
	smallStep := smallStepper(c, small)
	return Steps(func() (uint64, bool) {
		if c.pick(96, 100) {
			return heap.r.BaseVPN + pm.zipfAt(z.Uint64()), false
		}
		return smallStep()
	})
}

// buildBtree models the Mitosis BTree lookup benchmark (§6.2.5): the
// node heap suffers classic huge-page memory bloat — only ~40% of
// subpages are ever written — and lookups are skewed over scattered
// leaves, so hot huge pages have low utilization. Splitting both
// improves the hit ratio and reclaims the never-written subpages.
func buildBtree(c *ctx) Stream {
	inner := c.reserveSmall(c.spec.SmallBytes()) // internal nodes: hot
	heap := c.reserve(c.spec.RSSBytes() - c.spec.SmallBytes())
	c.touchSmall(inner)
	// Sparse population: write only ~40% of subpages, hash-scattered.
	var touched []uint32
	for i := uint64(0); i < heap.pages; i++ {
		if (i*2654435761)%100 < 40 {
			touched = append(touched, uint32(i))
		}
	}
	rest := touched
	c.segs = append(c.segs, segOf(FillFunc(func(dst []sim.Op) int {
		if len(rest) < len(dst) {
			dst = dst[:len(rest)]
		}
		for i := range dst {
			dst[i] = sim.Op{VPN: heap.r.BaseVPN + uint64(rest[i]), Write: true}
		}
		rest = rest[len(dst):]
		return len(dst)
	})))
	pm := newPerm(c.rng, uint64(len(touched)))
	z := newZipf(c.rng, 1.25, uint64(len(touched)))
	innerStep := smallStepper(c, inner)
	return Steps(func() (uint64, bool) {
		switch r := c.rng.Uint32() % 1000; {
		case r < 350:
			// Internal-node traversal: small, very hot regions.
			vpn, _ := innerStep()
			return vpn, false
		default:
			leaf := touched[pm.at(z.Uint64())%uint64(len(touched))]
			return heap.r.BaseVPN + uint64(leaf), c.pick(1, 20)
		}
	})
}

// buildBwaves models 603.bwaves (§6.2.6): long-lived solver arrays plus
// a steady churn of short-lived 2MB allocations. Systems that keep
// allocation head-room in the fast tier (Tiering-0.8, TPP, MEMTIS)
// serve the churn from DRAM; AutoTiering reserves free space only for
// promotions and AutoNUMA cannot demote at all, so their churn lands on
// the capacity tier.
func buildBwaves(c *ctx) Stream {
	small := c.reserveSmall(c.spec.SmallBytes())
	long := c.reserve(c.spec.RSSBytes() * 70 / 100)
	c.touchSmall(small)
	c.touchAll(long)
	zl := newBlockZipf(c.rng, 1.30, long)
	var cursor uint64
	// Short-lived buffer protocol: write it fully, read it back, free
	// it, allocate the next. The free is deferred to the draw after
	// the last read so that read's VPN is still mapped when the
	// machine issues it; a draw that needs the free or the next
	// allocation ends the batch (drawn), and the next Fill performs
	// them before its first op.
	var cur vm.Region
	var curIdx uint64
	var phaseWrite, freePending, drawn bool
	const shortPages = tier.SubPages // 2MB short-lived buffers
	prepare := func() {
		if freePending {
			c.m.FreeRegion(cur)
			cur = vm.Region{}
			freePending = false
		}
		if cur.Pages == 0 {
			cur = c.m.Reserve(shortPages * tier.BasePageSize)
			curIdx, phaseWrite = 0, true
		}
	}
	short := func() sim.Op {
		op := sim.Op{VPN: cur.BaseVPN + curIdx, Write: phaseWrite}
		curIdx++
		if curIdx >= cur.Pages {
			curIdx = 0
			if phaseWrite {
				phaseWrite = false
			} else {
				freePending = true
			}
		}
		return op
	}
	return FillFunc(func(dst []sim.Op) int {
		i := 0
		if drawn {
			if prepare(); len(dst) == 0 {
				return 0
			}
			dst[0], drawn, i = short(), false, 1
		}
		for ; i < len(dst); i++ {
			if c.pick(45, 100) {
				if c.pick(1, 2) {
					cursor++
					dst[i] = sim.Op{VPN: long.vpnAt(cursor)}
				} else {
					dst[i] = sim.Op{VPN: zl.next(), Write: c.pick(1, 4)}
				}
				continue
			}
			if freePending || cur.Pages == 0 {
				if i > 0 {
					drawn = true
					return i
				}
				prepare()
			}
			dst[i] = short()
		}
		return len(dst)
	})
}

// buildRoms models 654.roms (§6.2.6): a moderately skewed working set
// (block-scattered) dominates, with periodic time-step sweeps over the
// full arrays. Its high access rate is what drives ksampled's period
// upward (§6.3.5); splitting helps its hit ratio only slightly
// (Figure 12) because the skew lives at block, not subpage, level.
func buildRoms(c *ctx) Stream {
	small := c.reserveSmall(c.spec.SmallBytes())
	arrays := c.reserve(c.spec.RSSBytes() - c.spec.SmallBytes())
	c.touchSmall(small)
	c.touchAll(arrays)
	work := region{r: vm.Region{BaseVPN: arrays.r.BaseVPN, Pages: arrays.pages * 45 / 100}, pages: arrays.pages * 45 / 100}
	zw := newBlockZipf(c.rng, 1.40, work)
	var cursor uint64
	smallStep := smallStepper(c, small)
	return Steps(func() (uint64, bool) {
		switch r := c.rng.Uint32() % 1000; {
		case r < 260:
			cursor++
			return arrays.vpnAt(cursor), c.pick(1, 3)
		case r < 985:
			return zw.next(), false
		default:
			return smallStep()
		}
	})
}
