// Package workload models the eight memory-intensive applications of
// the paper's evaluation (Table 2) as synthetic access-stream
// generators over the simulated machine. Each generator encodes the
// characteristics the paper's analysis attributes to its application —
// phase structure, hot-set size and placement, huge-page subpage skew,
// memory bloat, allocation churn — with the resident set scaled down
// ~128x (1 paper-GB = 8 simulated MB) while preserving every ratio the
// tiering decisions depend on (see DESIGN.md §4).
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
	build func(c *ctx) stepper
	// stateful marks steppers that mutate machine state between
	// accesses (Reserve/FreeRegion churn): their accesses must be
	// issued one at a time, because pre-generating a batch would run
	// the mutation before earlier accesses reach the machine.
	stateful bool
}

// Name implements sim.Workload.
func (w *W) Name() string { return w.spec.Name }

// Spec returns the benchmark's Table 2 description.
func (w *W) Spec() Spec { return w.spec }

// batchSize is the steady-phase issue granularity: large enough to
// amortise the per-access budget check and stepper indirection, small
// enough that the Op buffer stays L1-resident (4KB).
const batchSize = 256

// Run implements sim.Workload: the build function performs the
// initialisation phase (allocations and first-touch writes count toward
// the access budget), then the steady-phase stepper is driven until the
// budget is exhausted. Pure steppers are issued through
// sim.Machine.AccessBatch — byte-identical to access-at-a-time (the
// batch API's contract, pinned by TestAccessBatchMatchesSequential) but
// with the loop bookkeeping amortised; stateful steppers (allocation
// churn) keep the one-at-a-time path.
func (w *W) Run(m *sim.Machine, accesses uint64) {
	step := w.build(w.newCtx(m, accesses))
	if w.stateful {
		for m.Accesses() < accesses {
			vpn, write := step()
			m.Access(vpn, write)
		}
		return
	}
	issueBatched(m, accesses, step)
}

// issueBatched drives a pure stepper until the machine has issued
// budget accesses, filling a fixed Op buffer and handing it to
// AccessBatch. Each Access advances m.Accesses() by exactly one and
// nothing else does, so issuing min(batchSize, remaining) ops per round
// lands on the budget exactly, as the per-access check would.
func issueBatched(m *sim.Machine, budget uint64, step stepper) {
	var buf [batchSize]sim.Op
	for {
		done := m.Accesses()
		if done >= budget {
			return
		}
		n := budget - done
		if n > batchSize {
			n = batchSize
		}
		for i := uint64(0); i < n; i++ {
			buf[i].VPN, buf[i].Write = step()
		}
		m.AccessBatch(buf[:n])
	}
}

// Drive issues accesses from a pure step function until the machine's
// cumulative access count reaches target, using the same batched issue
// path as the benchmark models (byte-identical to access-at-a-time).
// It is the building block external composers — notably
// internal/scenario — use to drive synthetic phases with workload's
// exact issue discipline. step must not mutate machine state.
func Drive(m *sim.Machine, target uint64, step func() (vpn uint64, write bool)) {
	issueBatched(m, target, step)
}

// Env is the execution environment a streaming workload initialises
// against when an external scheduler — rather than the workload's own
// Run loop — will pull its accesses: a reservation primitive for the
// tenant's address space and the machine seed.
type Env struct {
	// Reserve carves a region out of the workload's address space,
	// exactly like sim.Machine.Reserve would during Run.
	Reserve func(bytes uint64) vm.Region
	// Seed is the machine seed the workload derives its deterministic
	// access stream from (sim.Config.Seed).
	Seed int64
}

// Stream is the explicit suspend/resume state of one streaming drive:
// where the goroutine-baton scheduler parked a blocked goroutine
// between slices, an inline scheduler holds this struct and pulls
// accesses from Step whenever the workload is scheduled. All resume
// state (regions, RNG counters, phase) lives behind the closure; the
// stream is suspended simply by not calling Step.
type Stream struct {
	// Step emits the next access of the workload's deterministic
	// stream. It must not mutate machine state (no reservations or
	// frees), so a scheduler may pre-generate a batch of accesses
	// before issuing them.
	Step func() (vpn uint64, write bool)
	// Fill, when non-nil, writes the stream's next len(dst) accesses
	// into dst — exactly the ops len(dst) sequential Step calls would
	// return, advancing the same state. It exists purely to amortise
	// the per-access closure call across a batch on the scheduler hot
	// path; schedulers may mix Fill and Step calls freely.
	Fill func(dst []sim.Op)
}

// Streamer is a sim.Workload that can also run as a resumable stepper
// under an inline scheduler. Stream must produce exactly the access
// stream Run would issue (the budget and slice bounds are the
// driver's job), so a scheduler may use either form interchangeably;
// workloads with non-trivial machine interaction (mid-stream
// allocation churn, phased initialisation issuing accesses) cannot
// satisfy the contract and simply do not implement it — schedulers
// fall back to driving their Run on a dedicated goroutine.
type Streamer interface {
	sim.Workload
	// Stream performs the workload's setup (reservations only) against
	// env and returns the suspended drive state.
	Stream(env Env) Stream
}

// New builds the named benchmark model.
func New(name string) (*W, error) {
	spec, err := SpecByName(name)
	if err != nil {
		return nil, err
	}
	var build func(c *ctx) stepper
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
	// bwaves' stepper reserves and frees its short-lived buffers
	// between accesses, so its accesses cannot be pre-generated.
	return &W{spec: spec, build: build, stateful: name == "603.bwaves"}, nil
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

// newCtx is the build state Run hands to w.build: the machine, the
// access budget and the RNG the model's stream is seeded from.
func (w *W) newCtx(m *sim.Machine, budget uint64) *ctx {
	return &ctx{
		m:      m,
		rng:    rand.New(rand.NewSource(m.Cfg.Seed ^ int64(len(w.spec.Name)<<8))),
		budget: budget,
		spec:   w.spec,
	}
}

// ctx carries build/run state shared by the generators.
type ctx struct {
	m      *sim.Machine
	rng    *rand.Rand
	budget uint64
	spec   Spec
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

// touchAll writes one word per page sequentially (first-touch init),
// counting toward the access budget. Issued in batches: the init sweep
// is a pure function of the region, so pre-generating it is safe.
func (c *ctx) touchAll(r region) {
	var buf [batchSize]sim.Op
	for i := uint64(0); i < r.pages; {
		done := c.m.Accesses()
		if done >= c.budget {
			return
		}
		n := c.budget - done
		if n > batchSize {
			n = batchSize
		}
		if rem := r.pages - i; n > rem {
			n = rem
		}
		for k := uint64(0); k < n; k++ {
			buf[k] = sim.Op{VPN: r.r.BaseVPN + i + k, Write: true}
		}
		c.m.AccessBatch(buf[:n])
		i += n
	}
}

// touchSmall initialises a set of small regions.
func (c *ctx) touchSmall(rs []region) {
	for _, r := range rs {
		c.touchAll(r)
	}
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
func smallStepper(c *ctx, rs []region) stepper {
	if len(rs) == 0 {
		return func() (uint64, bool) { return 0, false }
	}
	var total uint64
	for _, r := range rs {
		total += r.pages
	}
	return func() (uint64, bool) {
		i := c.rng.Uint64() % total
		for _, r := range rs {
			if i < r.pages {
				return r.r.BaseVPN + i, c.pick(1, 4)
			}
			i -= r.pages
		}
		return rs[0].r.BaseVPN, false
	}
}

var _ sim.Workload = (*W)(nil)

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
