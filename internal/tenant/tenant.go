// Package tenant multiplexes N contending processes onto one simulated
// machine: each tenant owns a vm.AddressSpace and an independent
// workload, all sharing the machine's two tiers and its single policy
// daemon. A deterministic weighted scheduler interleaves the tenants'
// access streams in fixed-size slices; a lifecycle plan spawns and
// exits tenants and grows and shrinks their footprints mid-run; and a
// QoS arbiter below the policy layer enforces per-tenant fast-tier
// floors and weighted promotion shares (DESIGN.md §10).
//
// The scheduler is an inline run loop over resumable op streams: every
// tenant's workload is a workload.Streamer, whose Stream(m, budget)
// performs the setup on the tenant's first slice and returns the
// suspended drive state, and each slice is one workload.Drive call
// bounded by the slice end — the same issue loop every workload's own Run
// uses. Reservations, frees and phase transitions are part of the stream
// (DESIGN.md §13), so a slice is a plain loop on the scheduler's own
// stack, with no allocation.
//
// Determinism is by construction: the interleaving is a pure function
// of the machine seed and the config, so the same seed produces
// byte-identical event traces sequential or under a parallel matrix,
// including under the race detector. The inline scheduler reproduces
// the traces of the goroutine scheduler it replaced bit for bit (the
// tenant_equiv.json golden in internal/bench pins this).
package tenant

import (
	"fmt"
	"sort"

	"memtis/internal/obs"
	"memtis/internal/policy"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
	"memtis/internal/workload"
)

// Spec describes one tenant: identity, workload, QoS knobs and its
// lifecycle-churn plan. Churn points are fractions of the machine's
// global access budget, so a plan scales with run length.
type Spec struct {
	// Name labels the tenant's counters (`tenant/<name>/...`) and
	// result row. Empty defaults to "t<index>".
	Name string
	// Weight is the tenant's share weight: it biases the scheduler's
	// slice draw and bounds the tenant's fraction of promotions while
	// the fast tier is contended. Zero means 1.
	Weight uint64
	// FloorBytes is the guaranteed fast-tier floor. Demotions (and
	// collapses into the capacity tier) that would push the tenant's
	// fast footprint below min(floor, resident) are vetoed. Floors
	// are clamped proportionally if their sum exceeds what the fast
	// tier can honour.
	FloorBytes uint64
	// Workload drives the tenant's address space: Table 2 models,
	// synthetic and scenario workloads, trace replays. Instances may
	// be shared across tenants (all run state lives in the stream).
	Workload workload.Streamer
	// Admit, when set, is this tenant's admission hook, layered below
	// the policy's own AdmissionFunc: it is consulted (with
	// sync=false — the arbiter cannot tell) before floor and share
	// arbitration, and a false return vetoes the migration.
	Admit policy.AdmissionFunc

	// SpawnFrac > 0 delays the tenant's first slice until that
	// fraction of the budget has elapsed; 0 spawns at start.
	SpawnFrac float64
	// ExitFrac > 0 kills the tenant at that point and frees its whole
	// address space; 0 means the tenant runs to the end. At least one
	// tenant per config must be immortal.
	ExitFrac float64
	// GrowBytes > 0 reserves and write-touches an extra region at
	// GrowFrac (the touches count against the global budget);
	// ShrinkFrac > 0 frees that region again.
	GrowBytes  uint64
	GrowFrac   float64
	ShrinkFrac float64
}

// ChurnKind classifies one lifecycle event.
type ChurnKind uint8

// Churn event kinds, in intra-threshold application order.
const (
	ChurnSpawn ChurnKind = iota
	ChurnGrow
	ChurnShrink
	ChurnExit
)

// String names the kind.
func (k ChurnKind) String() string {
	switch k {
	case ChurnSpawn:
		return "spawn"
	case ChurnGrow:
		return "grow"
	case ChurnShrink:
		return "shrink"
	case ChurnExit:
		return "exit"
	}
	return "unknown"
}

// Bounds and defaults.
const (
	// MaxTenants bounds a config (the conformance sweep's largest
	// point is 1024; the bound leaves headroom without letting a
	// fuzzer allocate unbounded spaces).
	MaxTenants = 4096
	// DefaultSlice is the scheduler quantum in accesses — roughly
	// half a millisecond of simulated time at typical access costs,
	// comparable to an OS scheduler's minimum granularity. Smaller
	// quanta interleave tenants more finely but cold-start the
	// (simulated) TLB and the host caches on every switch; 8k keeps
	// the 64-tenant per-access cost within ~1.1x of single-tenant.
	DefaultSlice = 8192
	// MinSlice is the floor AutoSlice scales down to for very large
	// mixes: below ~256 accesses the per-switch TLB cold-start
	// dominates the slice itself.
	MinSlice  = 256
	maxWeight = 1_000_000
	// shareSlackUnits is the arbiter's burst allowance above a
	// tenant's exact proportional share of contended promotions: a
	// few huge pages' worth, so coarse-grained (2MB) promotions don't
	// deadlock the share accounting at low totals.
	shareSlackUnits = 2 * tier.SubPages
)

// Config is a multi-tenant run plan.
type Config struct {
	Tenants []Spec
	// Slice is the scheduler quantum in accesses (default
	// DefaultSlice). Large tenant counts want a smaller slice so
	// every tenant runs within a bounded budget.
	Slice uint64
	// OnChurn, when set, runs after every applied churn event —
	// the churn property test audits the machine here.
	OnChurn func(kind ChurnKind, tenant int)
}

// Validate checks the config bounds.
func (c *Config) Validate() error {
	if len(c.Tenants) == 0 {
		return fmt.Errorf("tenant: no tenants")
	}
	if len(c.Tenants) > MaxTenants {
		return fmt.Errorf("tenant: %d tenants exceeds the %d bound", len(c.Tenants), MaxTenants)
	}
	immortal := false
	seen := make(map[string]bool, len(c.Tenants))
	for i := range c.Tenants {
		t := &c.Tenants[i]
		if t.Workload == nil {
			return fmt.Errorf("tenant %d: nil workload", i)
		}
		if t.Weight > maxWeight {
			return fmt.Errorf("tenant %d: weight %d exceeds the %d bound", i, t.Weight, maxWeight)
		}
		for _, f := range [...]struct {
			name string
			v    float64
		}{{"SpawnFrac", t.SpawnFrac}, {"ExitFrac", t.ExitFrac}, {"GrowFrac", t.GrowFrac}, {"ShrinkFrac", t.ShrinkFrac}} {
			if f.v < 0 || f.v > 1 {
				return fmt.Errorf("tenant %d: %s %v outside [0,1]", i, f.name, f.v)
			}
		}
		if t.ExitFrac > 0 && t.SpawnFrac >= t.ExitFrac {
			return fmt.Errorf("tenant %d: spawns at %v, at or after its exit %v", i, t.SpawnFrac, t.ExitFrac)
		}
		if t.GrowBytes > 0 && t.ShrinkFrac > 0 && t.ShrinkFrac <= t.GrowFrac {
			return fmt.Errorf("tenant %d: shrinks at %v, at or before its grow %v", i, t.ShrinkFrac, t.GrowFrac)
		}
		if t.ExitFrac == 0 {
			immortal = true
		}
		name := tenantName(t, i)
		if seen[name] {
			return fmt.Errorf("tenant %d: duplicate name %q", i, name)
		}
		seen[name] = true
	}
	if !immortal {
		return fmt.Errorf("tenant: every tenant exits; at least one must run to the end")
	}
	return nil
}

func tenantName(t *Spec, i int) string {
	if t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("t%d", i)
}

// Runner drives a Config as a sim.Workload. It is immutable after New
// — all per-run state lives in the run struct — so one Runner is safe
// to share across parallel matrix cells, like scenario runners.
type Runner struct {
	cfg Config
}

// New validates the config and builds a Runner.
func New(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Slice == 0 {
		cfg.Slice = AutoSlice(len(cfg.Tenants))
	}
	return &Runner{cfg: cfg}, nil
}

// AutoSlice returns the default scheduler quantum for n tenants:
// DefaultSlice up to 64 tenants (the historical fixed default), then
// scaled down so one full fairness rotation over every tenant fits the
// same window 64 tenants get (n*slice <= 64*DefaultSlice), floored at
// MinSlice. At 1024 tenants this tightens the quantum to 512 accesses,
// so every tenant is still scheduled within a bounded fraction of a
// typical budget instead of the rotation stretching 16x.
func AutoSlice(n int) uint64 {
	const window = 64 * DefaultSlice
	s := uint64(DefaultSlice)
	if n > 0 && uint64(n)*s > window {
		s = window / uint64(n)
		if s < MinSlice {
			s = MinSlice
		}
	}
	return s
}

// Name implements sim.Workload.
func (r *Runner) Name() string { return "tenants" }

// Run implements sim.Workload: it interleaves the tenants' workloads
// on m until exactly `accesses` accesses have been issued machine-wide
// (every tenant's stream is given the global budget as its nominal
// target; the scheduler preempts them at slice boundaries and stops at
// the global budget, so the total always lands exactly). The machine
// must be fresh: single-space, not previously run.
func (r *Runner) Run(m *sim.Machine, accesses uint64) {
	st := newRun(r, m, accesses)
	defer st.arb.finalize()
	for {
		st.fireChurn()
		if m.TotalAccesses() >= st.target {
			return
		}
		p := st.pick()
		if p == nil {
			return
		}
		st.schedule(p)
	}
}

// proc is one tenant's execution state: its suspended stream once
// first scheduled.
type proc struct {
	id     int
	spec   *Spec
	stream workload.Stream
	live   bool
}

type churnEvent struct {
	at     uint64
	tenant int
	kind   ChurnKind
}

// run is the per-Run mutable state: scheduler, churn plan and arbiter.
type run struct {
	m      *sim.Machine
	cfg    *Config
	target uint64
	slice  uint64

	procs []*proc
	names []string

	// pk is the weighted pick state (see wpick): tenants are credited
	// when runnable, cleared when finished or exited.
	pk *wpick

	// buf is the slice batch buffer (no allocation on the slice path).
	buf workload.BatchBuf

	events []churnEvent
	nextEv int
	grown  []vm.Region

	arb *arbiter

	rng uint64
}

// setRunnable credits tenant i's weight to the pick tree (no-op when
// already runnable).
func (st *run) setRunnable(i int) { st.pk.set(i, st.arb.weight(i)) }

// clearRunnable removes tenant i's weight from the pick tree (no-op
// when not runnable).
func (st *run) clearRunnable(i int) { st.pk.clear(i) }

func newRun(r *Runner, m *sim.Machine, accesses uint64) *run {
	n := len(r.cfg.Tenants)
	st := &run{
		m:      m,
		cfg:    &r.cfg,
		target: accesses,
		slice:  r.cfg.Slice,
		procs:  make([]*proc, n),
		names:  make([]string, n),
		pk:     newWpick(n),
		grown:  make([]vm.Region, n),
		rng:    uint64(m.Cfg.Seed) ^ 0x74_65_6e_61_6e_74, // "tenant"
	}
	specs := make([]*Spec, n)
	for i := range r.cfg.Tenants {
		st.names[i] = tenantName(&r.cfg.Tenants[i], i)
		specs[i] = &r.cfg.Tenants[i]
	}
	st.arb = newArbiter(m, specs, st.names)
	// Install the veto hook on the root space first: AddSpace copies it
	// onto every additional space.
	m.AS.MigrateVeto = st.arb.veto
	// Tenant i owns space i; tenant 0 keeps the root space, so a
	// one-tenant run stays on the single-space fast path.
	for i := 1; i < n; i++ {
		if id := m.AddSpace(st.names[i]); id != i {
			panic("tenant: machine not fresh (spaces already added)")
		}
	}
	if n > 1 {
		m.SetSpaceLabel(0, st.names[0])
	}
	for i := range r.cfg.Tenants {
		t := &r.cfg.Tenants[i]
		p := &proc{id: i, spec: t}
		st.procs[i] = p
		if t.SpawnFrac <= 0 {
			p.live = true
			st.arb.addLive(i)
			st.setRunnable(i)
			m.Tracer().Emit(obs.EvTenantSpawn, uint64(i), false, 0, 0)
		} else {
			st.events = append(st.events, churnEvent{st.frac(t.SpawnFrac), i, ChurnSpawn})
		}
		if t.GrowBytes > 0 {
			st.events = append(st.events, churnEvent{st.frac(t.GrowFrac), i, ChurnGrow})
			if t.ShrinkFrac > 0 {
				st.events = append(st.events, churnEvent{st.frac(t.ShrinkFrac), i, ChurnShrink})
			}
		}
		if t.ExitFrac > 0 {
			st.events = append(st.events, churnEvent{st.frac(t.ExitFrac), i, ChurnExit})
		}
	}
	sortChurn(st.events)
	return st
}

// sortChurn orders a churn plan by (threshold, kind, tenant) — the
// scheduler's intra-threshold application order.
func sortChurn(events []churnEvent) {
	sort.SliceStable(events, func(a, b int) bool {
		ea, eb := events[a], events[b]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		if ea.kind != eb.kind {
			return ea.kind < eb.kind
		}
		return ea.tenant < eb.tenant
	})
}

func (st *run) frac(f float64) uint64 { return uint64(f * float64(st.target)) }

// rand is a SplitMix64 step — the scheduler's only randomness, fully
// determined by the machine seed.
func (st *run) rand() uint64 {
	st.rng += 0x9e3779b97f4a7c15
	z := st.rng
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// fireChurn applies every lifecycle event whose threshold has passed.
func (st *run) fireChurn() {
	for st.nextEv < len(st.events) && st.events[st.nextEv].at <= st.m.TotalAccesses() {
		ev := st.events[st.nextEv]
		st.nextEv++
		st.apply(ev)
	}
}

func (st *run) apply(ev churnEvent) {
	p := st.procs[ev.tenant]
	switch ev.kind {
	case ChurnSpawn:
		p.live = true
		st.arb.addLive(ev.tenant)
		st.setRunnable(ev.tenant)
		st.m.Tracer().Emit(obs.EvTenantSpawn, uint64(ev.tenant), false, 0, 0)
	case ChurnExit:
		st.exit(p)
	case ChurnGrow:
		st.grow(p)
	case ChurnShrink:
		st.shrink(p)
	}
	st.arb.checkFloors()
	if st.cfg.OnChurn != nil {
		st.cfg.OnChurn(ev.kind, ev.tenant)
	}
}

// exit finishes the tenant and frees its entire address space.
func (st *run) exit(p *proc) {
	if !p.live {
		return
	}
	st.clearRunnable(p.id)
	p.live = false
	st.arb.removeLive(p.id)
	as := st.m.Space(p.id)
	released := as.ResidentUnits() * tier.BasePageSize
	st.m.UseSpace(p.id)
	st.m.FreeRegion(vm.Region{BaseVPN: 0, Pages: as.ReservedPages()})
	st.m.Tracer().Emit(obs.EvTenantExit, uint64(p.id), false, released, 0)
}

// grow reserves the tenant's churn region and write-touches it
// (scheduler-issued accesses: they count against the global budget,
// and against the tenant's own space count its stream reads).
func (st *run) grow(p *proc) {
	if !p.live || p.spec.GrowBytes == 0 {
		return
	}
	st.m.UseSpace(p.id)
	reg := st.m.Reserve(p.spec.GrowBytes)
	st.grown[p.id] = reg
	for vpn := reg.BaseVPN; vpn < reg.BaseVPN+reg.Pages && st.m.TotalAccesses() < st.target; vpn++ {
		st.m.Access(vpn, true)
	}
}

func (st *run) shrink(p *proc) {
	if !p.live || st.grown[p.id].Pages == 0 {
		return
	}
	st.m.UseSpace(p.id)
	st.m.FreeRegion(st.grown[p.id])
	st.grown[p.id] = vm.Region{}
}

// pick draws the next tenant to run, weighted by share weight among
// live, unfinished tenants; nil when none are runnable. The draw is a
// Fenwick prefix-sum search — the selected tenant is exactly the one
// the historical linear cumulative-weight scan would return for the
// same draw, so the scheduling sequence stays the same.
func (st *run) pick() *proc {
	if st.pk.sum == 0 {
		return nil
	}
	return st.procs[st.pk.pick(st.rand()%st.pk.sum)]
}

// schedule runs p for one slice, bounded by the next churn threshold
// and the global budget. The slice is one Drive call, so the accesses
// issued are exactly those the tenant's stream would issue alone up to
// the slice end; the stream starts on the tenant's first slice, where
// its Run would begin.
func (st *run) schedule(p *proc) {
	now := st.m.TotalAccesses()
	end := now + st.slice
	if st.nextEv < len(st.events) && st.events[st.nextEv].at < end {
		end = st.events[st.nextEv].at
	}
	if st.target < end {
		end = st.target
	}
	st.m.UseSpace(p.id)
	st.m.Tracer().Emit(obs.EvTenantSwitch, uint64(p.id), false, 0, end-now)
	if p.stream == nil {
		p.stream = p.spec.Workload.Stream(st.m, st.target)
	}
	if workload.Drive(st.m, p.stream, st.target, end, &st.buf) {
		// The tenant's own budget is spent or its stream exhausted:
		// its Run would have returned here.
		st.clearRunnable(p.id)
	}
	st.arb.checkFloor(p.id)
}
