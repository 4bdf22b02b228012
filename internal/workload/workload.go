// Package workload models the eight memory-intensive applications of
// the paper's evaluation (Table 2) as synthetic access-stream
// generators over the simulated machine. Each generator encodes the
// characteristics the paper's analysis attributes to its application —
// phase structure, hot-set size and placement, huge-page subpage skew,
// memory bloat, allocation churn — with the resident set scaled down
// ~128x (1 paper-GB = 8 simulated MB) while preserving every ratio the
// tiering decisions depend on (see DESIGN.md §4).
//
// The package also defines the one execution model every access source
// follows (DESIGN.md §13): a Streamer's resumable op Stream, whose
// reservations, frees and phase changes are part of the stream, issued
// by Drive — alone through Run, or a slice at a time by the tenant
// scheduler.
package workload

import (
	"fmt"
	"math/rand"

	"memtis/internal/dist"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// BytesPerPaperGB is the down-scaling factor: one GB of paper RSS
// becomes this many simulated bytes.
const BytesPerPaperGB = 8 << 20

// Spec describes one benchmark (the scaled Table 2 row).
type Spec struct {
	Name        string
	PaperRSSGB  float64 // Table 2 RSS
	RHP         float64 // Table 2 ratio of huge pages
	Description string
	// PaperOverAllocMB is HeMem's over-allocation from Table 3.
	PaperOverAllocMB float64
}

// RSSBytes returns the scaled resident-set size.
func (s Spec) RSSBytes() uint64 {
	return uint64(s.PaperRSSGB * BytesPerPaperGB)
}

// SmallBytes returns the scaled volume of small (non-THP) allocations,
// derived from the huge-page ratio: small = (1-RHP) * RSS. This is also
// the source of HeMem's over-allocation.
func (s Spec) SmallBytes() uint64 {
	return uint64((1 - s.RHP) * float64(s.RSSBytes()))
}

// Specs returns the Table 2 benchmark set in paper order.
func Specs() []Spec {
	return []Spec{
		{"graph500", 66.3, 0.999, "Generation and search of large graphs", 60},
		{"pagerank", 12.3, 0.999, "PageRank over the Twitter graph (GAP)", 500},
		{"xsbench", 63.4, 1.000, "Monte Carlo neutron transport kernel", 420},
		{"liblinear", 67.9, 0.999, "Linear classification (KDD12)", 90},
		{"silo", 58.1, 0.974, "In-memory database engine (YCSB-C)", 1400},
		{"btree", 38.3, 0.752, "In-memory index lookup", 9800},
		{"603.bwaves", 11.1, 0.995, "Explosion modelling (SPEC CPU 2017)", 1900},
		{"654.roms", 10.3, 0.966, "Regional ocean modelling (SPEC CPU 2017)", 900},
	}
}

// SpecByName finds a Table 2 entry.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// stepper emits the next access of the steady phase.
type stepper func() (vpn uint64, write bool)

// W is one runnable benchmark model.
type W struct {
	spec  Spec
	build func(c *ctx) Stream
}

// Name implements sim.Workload.
func (w *W) Name() string { return w.spec.Name }

// Spec returns the benchmark's Table 2 description.
func (w *W) Spec() Spec { return w.spec }

// Run implements sim.Workload by driving the model's stream alone.
func (w *W) Run(m *sim.Machine, accesses uint64) { Run(m, w, accesses) }

// Stream implements Streamer: the build function reserves the model's
// regions now and queues its initialisation phase — first-touch sweeps
// and the like, which count toward the budget — ahead of the
// steady-phase stream.
func (w *W) Stream(m *sim.Machine, budget uint64) Stream {
	c := w.newCtx(m, budget)
	steady := w.build(c)
	return NewSeq(m, budget, append(c.segs, segOf(steady)))
}

// Stream is a workload's suspended drive: everything it needs to
// resume — regions, RNG state, phase — lives behind Fill, and a
// scheduler suspends it simply by not calling Fill.
type Stream interface {
	// Fill writes the stream's next ops into dst and returns how many
	// it wrote. A short batch is allowed (a stream stops one before a
	// machine mutation, so that the mutation lands between the right
	// two accesses); 0 for a non-empty dst means the stream is
	// exhausted. The ops are issued only after Fill returns, so Fill
	// may call m.Reserve, m.FreeRegion or m.Accesses only before it
	// writes its first op of the call. A zero-length Fill runs the
	// mutations already due before the next op — once the budget is
	// spent, all that remain.
	Fill(dst []sim.Op) int
}

// FillFunc adapts a function to Stream.
type FillFunc func(dst []sim.Op) int

// Fill implements Stream.
func (f FillFunc) Fill(dst []sim.Op) int { return f(dst) }

// Streamer is a sim.Workload whose accesses all come from one
// resumable op stream. Run must be Run(m, w, accesses), so a workload
// issues the same accesses whether it runs alone or as a tenant.
type Streamer interface {
	sim.Workload
	// Stream starts a drive of at most budget accesses on m's current
	// address space. It may reserve: it runs where Run would begin.
	Stream(m *sim.Machine, budget uint64) Stream
}

// batchSize is the drive's issue granularity: large enough to amortise
// the per-access budget check and stream indirection, small enough
// that the Op buffer stays L1-resident (4KB).
const batchSize = 256

// BatchBuf is a batch buffer for Drive.
type BatchBuf [batchSize]sim.Op

// noLimit is an unbounded access count.
const noLimit = ^uint64(0)

// Drive issues s's ops on m through buf until the current space has
// issued budget accesses or the machine end accesses in total, or s is
// exhausted. It reports whether the stream is done (budget spent or
// exhausted) rather than stopped at end. Every streamed access goes
// through here, in sim.Machine.AccessBatch calls: byte-identical to
// access-at-a-time (the batch API's contract, pinned by
// TestAccessBatchMatchesSequential), with the loop bookkeeping
// amortised. Each access advances both counts by exactly one and
// nothing else does mid-batch, so the batch bounds land on budget and
// end exactly.
func Drive(m *sim.Machine, s Stream, budget, end uint64, buf *BatchBuf) (done bool) {
	for {
		total := m.TotalAccesses()
		if total >= end {
			return false
		}
		n := m.Accesses()
		if n >= budget {
			return true
		}
		k := end - total
		if r := budget - n; r < k {
			k = r
		}
		if k > batchSize {
			k = batchSize
		}
		if k = uint64(s.Fill(buf[:k])); k == 0 {
			return true
		}
		m.AccessBatch(buf[:k])
	}
}

// Run drives w alone on m until the space has issued budget accesses,
// then makes one zero-length Fill for the mutations the stream still
// owes (a scenario's churn-only phases after the budget is spent): the
// Run of every Streamer. A tenant is stopped at the global budget
// instead, so it never owes them.
func Run(m *sim.Machine, w Streamer, budget uint64) {
	s := w.Stream(m, budget)
	Drive(m, s, budget, noLimit, new(BatchBuf))
	s.Fill(nil)
}

// Seg starts one segment of a NewSeq stream: a contiguous run of ops. It runs
// when the segment becomes current, before the segment's first op —
// the point where a stream may reserve or free — with the space's
// access count, and returns the count the segment runs up to and its op
// source. A nil source makes a mutation-only segment; a source that is
// exhausted ends its segment early.
type Seg func(done uint64) (until uint64, ops Stream)

// seq is a Stream that plays segments in order, each bounded by the
// count its start returned and by the sequence budget. One Fill serves
// at most one segment, so every segment starts at the head of a call.
type seq struct {
	m      *sim.Machine
	budget uint64
	segs   []Seg
	until  uint64
	ops    Stream // current segment's source; nil between segments
}

// NewSeq returns the stream that plays segs in order on m's current
// space, each bounded by the count its start returned and by budget.
func NewSeq(m *sim.Machine, budget uint64, segs []Seg) Stream {
	return &seq{m: m, budget: budget, segs: segs}
}

func (q *seq) Fill(dst []sim.Op) int {
	done := q.m.Accesses()
	for {
		for q.ops == nil {
			if len(q.segs) == 0 {
				return 0
			}
			q.until, q.ops = q.segs[0](done)
			q.segs = q.segs[1:]
		}
		if done < q.until && done < q.budget {
			if len(dst) == 0 {
				return 0
			}
			n := uint64(len(dst))
			if r := q.until - done; r < n {
				n = r
			}
			if r := q.budget - done; r < n {
				n = r
			}
			if k := q.ops.Fill(dst[:n]); k > 0 {
				return k
			}
		}
		q.ops = nil
	}
}

// Sweep is the stream of first-touch writes to pages consecutive pages
// from base; it is exhausted after the last.
func Sweep(base, pages uint64) Stream {
	return FillFunc(func(dst []sim.Op) int {
		n := uint64(len(dst))
		if pages < n {
			n = pages
		}
		for i := range dst[:n] {
			dst[i] = sim.Op{VPN: base + uint64(i), Write: true}
		}
		base, pages = base+n, pages-n
		return int(n)
	})
}

// Steps is the endless stream of a stepper's accesses.
func Steps(step func() (vpn uint64, write bool)) Stream {
	return FillFunc(func(dst []sim.Op) int {
		for i := range dst {
			dst[i].VPN, dst[i].Write = step()
		}
		return len(dst)
	})
}

// New builds the named benchmark model.
func New(name string) (*W, error) {
	spec, err := SpecByName(name)
	if err != nil {
		return nil, err
	}
	var build func(c *ctx) Stream
	switch name {
	case "graph500":
		build = buildGraph500
	case "pagerank":
		build = buildPageRank
	case "xsbench":
		build = buildXSBench
	case "liblinear":
		build = buildLiblinear
	case "silo":
		build = buildSilo
	case "btree":
		build = buildBtree
	case "603.bwaves":
		build = buildBwaves
	case "654.roms":
		build = buildRoms
	}
	return &W{spec: spec, build: build}, nil
}

// NewScaled builds the named benchmark with an overridden paper-scale
// RSS (used by the Figure 6 scalability sweep, which grows Graph500
// from 128GB to 690GB).
func NewScaled(name string, rssGB float64) (*W, error) {
	w, err := New(name)
	if err != nil {
		return nil, err
	}
	w.spec.PaperRSSGB = rssGB
	return w, nil
}

// MustNew is New for tests and examples.
func MustNew(name string) *W {
	w, err := New(name)
	if err != nil {
		panic(err)
	}
	return w
}

// All returns every benchmark model.
func All() []*W {
	specs := Specs()
	ws := make([]*W, 0, len(specs))
	for _, s := range specs {
		ws = append(ws, MustNew(s.Name))
	}
	return ws
}

// newCtx is the build state Stream hands to w.build: the machine, the
// access budget and the RNG the model's stream is seeded from.
func (w *W) newCtx(m *sim.Machine, budget uint64) *ctx {
	return &ctx{
		m:      m,
		rng:    rand.New(rand.NewSource(m.Cfg.Seed ^ int64(len(w.spec.Name)<<8))),
		budget: budget,
		spec:   w.spec,
	}
}

// ctx carries build/run state shared by the generators: reservations
// happen at build time, and the initialisation phase is queued as segs
// to play ahead of the steady-phase stream.
type ctx struct {
	m      *sim.Machine
	rng    *rand.Rand
	budget uint64
	spec   Spec
	segs   []Seg
}

// region wraps a reservation with conveniences for page-granular access.
type region struct {
	r     vm.Region
	pages uint64
}

func (c *ctx) reserve(bytes uint64) region {
	r := c.m.Reserve(bytes)
	return region{r: r, pages: r.Pages}
}

// reserveSmall reserves total bytes as many sub-2MB regions so they are
// backed by base pages (models the application's small allocations and
// yields the workload's RHP and HeMem's Table 3 over-allocation).
func (c *ctx) reserveSmall(total uint64) []region {
	var out []region
	const chunk = 512 << 10 // 512KB
	for total > 0 {
		b := uint64(chunk)
		if b > total {
			b = total
		}
		out = append(out, c.reserve(b))
		if b < chunk {
			break
		}
		total -= b
	}
	return out
}

// vpnAt returns the region's i-th page VPN.
func (r region) vpnAt(i uint64) uint64 { return r.r.BaseVPN + i%r.pages }

// touchAll queues a sequential one-word-per-page write sweep over the
// region (first-touch init), counting toward the access budget.
func (c *ctx) touchAll(r region) { c.segs = append(c.segs, segOf(Sweep(r.r.BaseVPN, r.pages))) }

// touchSmall queues the init sweeps of a set of small regions.
func (c *ctx) touchSmall(rs []region) {
	for _, r := range rs {
		c.touchAll(r)
	}
}

// segOf is the segment that plays ops until they are exhausted or the
// budget is spent.
func segOf(ops Stream) Seg {
	return func(uint64) (uint64, Stream) { return noLimit, ops }
}

// newZipf draws skewed indexes in [0, n) exactly as rand.NewZipf(rng,
// s, 1, n-1) would (s > 1).
func newZipf(rng *rand.Rand, s float64, n uint64) *dist.StdZipf {
	if n < 1 {
		n = 1
	}
	return dist.NewStdZipf(rng, s, 1, n-1)
}

// perm is a page-index permutation used to scatter hot indexes across
// the address range (hash-distributed heaps).
type perm struct {
	p []uint32
}

func newPerm(rng *rand.Rand, n uint64) perm {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return perm{p: p}
}

func (pm perm) at(i uint64) uint64 { return uint64(pm.p[i%uint64(len(pm.p))]) }

// zipfAt is at for a draw of newZipf over len(p) entries, without the
// divide. rand.Zipf returns at most imax+1 = len(p), and that only for
// a u within rounding error of its top boundary (silo's heap size hits
// it at r = 0), so one conditional subtraction wraps exactly as at's
// modulo does.
func (pm perm) zipfAt(i uint64) uint64 {
	if i >= uint64(len(pm.p)) {
		i -= uint64(len(pm.p))
	}
	return uint64(pm.p[i])
}

// pick returns true with probability num/den.
func (c *ctx) pick(num, den uint32) bool { return c.rng.Uint32()%den < num }

// smallStepper returns a stepper over the small regions with uniform
// access, used as a low-intensity side channel in several benchmarks.
// rs is reserveSmall's output: equal chunks but for a shorter last one,
// so the region holding the i-th page of their concatenation is found
// by one division.
func smallStepper(c *ctx, rs []region) stepper {
	if len(rs) == 0 {
		return func() (uint64, bool) { return 0, false }
	}
	chunk, last := rs[0].pages, uint64(len(rs)-1)
	var total uint64
	for _, r := range rs {
		total += r.pages
	}
	return func() (uint64, bool) {
		i := c.rng.Uint64() % total
		k := min(i/chunk, last)
		return rs[k].r.BaseVPN + i - k*chunk, c.pick(1, 4)
	}
}

var _ Streamer = (*W)(nil)

// HugeAllocRatio computes the fraction of RSS mapped by huge pages on
// the machine — the measured RHP for Table 2.
func HugeAllocRatio(m *sim.Machine) float64 {
	var huge, total uint64
	m.AS.ForEachPage(func(p *vm.Page) {
		total += p.Units()
		if p.IsHuge() {
			huge += p.Units()
		}
	})
	if total == 0 {
		return 0
	}
	return float64(huge) / float64(total)
}

// UtilizationSample is one Figure 3 dot: a huge page's access count
// against the number of its subpages seen by sampling.
type UtilizationSample struct {
	AccessCount uint64
	Utilization int // accessed subpages, 0..512
}

// CollectUtilization harvests Figure 3 data from a machine after a run
// with PEBS-backed subpage counters (the MEMTIS policy).
func CollectUtilization(m *sim.Machine) []UtilizationSample {
	var out []UtilizationSample
	m.AS.ForEachPage(func(p *vm.Page) {
		if !p.IsHuge() || p.SubCount == nil {
			return
		}
		u := 0
		for j := 0; j < tier.SubPages; j++ {
			if p.SubCount[j] > 0 {
				u++
			}
		}
		if p.Count > 0 {
			out = append(out, UtilizationSample{AccessCount: p.Count, Utilization: u})
		}
	})
	return out
}
