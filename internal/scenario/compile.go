package scenario

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"memtis/internal/dist"
	"memtis/internal/sim"
	"memtis/internal/tenant"
	"memtis/internal/tier"
	"memtis/internal/trace"
	"memtis/internal/vm"
	"memtis/internal/workload"
)

// Options tunes Compile.
type Options struct {
	// Dir resolves relative trace paths (empty = process working
	// directory).
	Dir string
}

// Runner is a compiled scenario: a sim.Workload whose Run executes the
// phases in order. A Runner is immutable after Compile — all run state
// lives in the run's stream — so one Runner may drive many machines,
// and matrix cells running in parallel may share it (the same contract
// as workload.W; pinned by TestScenarioMatrixDeterminism).
type Runner struct {
	spec Spec
	fc   tier.FaultConfig
	rss  uint64
	// Exactly one of prog (the single-tenant phase form) and tn (the
	// tenant multiplexer of a multi-tenant spec) is set; Run delegates
	// to it wholesale.
	prog *program
	tn   *tenant.Runner
}

// program is a compiled phase list: the stream a single-tenant
// scenario, and each tenant of a multi-tenant one, runs. A
// multi-tenant scenario is never itself a tenant, so only programs
// stream.
type program struct {
	name   string
	phases []cphase
}

// cphase is one compiled phase: the spec plus its pre-built access
// source. All fields are read-only after Compile.
type cphase struct {
	p   Phase
	src workload.Streamer // a Table 2 model or a trace replay
}

// Compile validates a spec and builds its runner, loading any trace
// files it references.
func Compile(spec Spec, opt Options) (*Runner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{spec: spec, fc: spec.FaultConfig()}
	if len(spec.Tenants) > 0 {
		return compileTenants(r, opt)
	}
	r.prog = &program{name: spec.Name}
	live := map[string]uint64{}
	var running, peak uint64
	for i := range spec.Phases {
		p := spec.Phases[i]
		cp := cphase{p: p}
		for _, name := range p.Free {
			running -= live[name]
			delete(live, name)
		}
		for _, g := range p.Grow {
			live[g.Name] = g.Bytes
			running += g.Bytes
		}
		switch {
		case p.Workload != "":
			var w *workload.W
			var err error
			if p.RSSGB > 0 {
				w, err = workload.NewScaled(p.Workload, p.RSSGB)
			} else {
				w, err = workload.New(p.Workload)
			}
			if err != nil {
				return nil, fmt.Errorf("scenario: phase %d: %w", i, err)
			}
			cp.src = w
			running += w.Spec().RSSBytes()
		case p.Trace != "":
			path := p.Trace
			if opt.Dir != "" && !filepath.IsAbs(path) {
				path = filepath.Join(opt.Dir, path)
			}
			recs, err := trace.LoadFile(path)
			if err != nil {
				return nil, fmt.Errorf("scenario: phase %d: %w", i, err)
			}
			if len(recs) == 0 {
				return nil, fmt.Errorf("scenario: phase %d: trace %s is empty", i, path)
			}
			rep := trace.NewReplay(spec.Name+"/"+p.Trace, recs)
			cp.src = rep
			running += rep.SpanPages() * tier.BasePageSize
		}
		if running > peak {
			peak = running
		}
		r.prog.phases = append(r.prog.phases, cp)
	}
	if peak > MaxTotalBytes {
		return nil, fmt.Errorf("scenario: peak resident estimate %d exceeds %d (trace spans included)", peak, MaxTotalBytes)
	}
	// Floor the estimate so degenerate scenarios still get a machine
	// with room for a few huge pages per tier.
	if peak < 4<<20 {
		peak = 4 << 20
	}
	r.rss = peak
	return r, nil
}

// compileTenants builds the multi-tenant form: each tenant's phase
// list compiles into its own sub-Runner (scenario -> tenant -> sim,
// one direction), and internal/tenant's scheduler interleaves them.
// The resident estimate is the sum over tenants — every tenant's
// footprint contends for the same tiers.
func compileTenants(r *Runner, opt Options) (*Runner, error) {
	specs := make([]tenant.Spec, len(r.spec.Tenants))
	var rss uint64
	for i := range r.spec.Tenants {
		t := &r.spec.Tenants[i]
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("t%d", i)
		}
		sub, err := Compile(Spec{Name: r.spec.Name + "/" + name, Phases: t.Phases}, opt)
		if err != nil {
			return nil, fmt.Errorf("scenario: tenant %d (%s): %w", i, name, err)
		}
		specs[i] = tenant.Spec{
			Name:       name,
			Weight:     t.Weight,
			FloorBytes: t.FloorBytes,
			Workload:   sub.prog,
			SpawnFrac:  t.SpawnFrac,
			ExitFrac:   t.ExitFrac,
			GrowBytes:  t.GrowBytes,
			GrowFrac:   t.GrowFrac,
			ShrinkFrac: t.ShrinkFrac,
		}
		rss += sub.RSSBytes() + t.GrowBytes
	}
	tn, err := tenant.New(tenant.Config{Tenants: specs})
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	r.tn = tn
	r.rss = rss
	return r, nil
}

// MustCompile is Compile for tests and examples.
func MustCompile(spec Spec, opt Options) *Runner {
	r, err := Compile(spec, opt)
	if err != nil {
		panic(err)
	}
	return r
}

// Name implements sim.Workload.
func (r *Runner) Name() string { return r.spec.Name }

// Spec returns the compiled spec.
func (r *Runner) Spec() Spec { return r.spec }

// RSSBytes is the peak resident-set estimate harnesses size machines
// with (the running sum of grows, workload RSS and trace spans, net of
// frees, at its maximum over the phase sequence).
func (r *Runner) RSSBytes() uint64 { return r.rss }

// FaultConfig returns the scenario's parsed fault plan (zero when the
// spec declares none).
func (r *Runner) FaultConfig() tier.FaultConfig { return r.fc }

// NumTenants returns the tenant count of a multi-tenant scenario
// (1 for the single-tenant phase form).
func (r *Runner) NumTenants() int {
	if r.tn == nil {
		return 1
	}
	return len(r.spec.Tenants)
}

// Run implements sim.Workload: a multi-tenant scenario runs under
// the tenant scheduler, which owns the budget split (each tenant's
// program sees the global budget as its nominal target; per-space
// progress runs behind it, so the scheduler's stop at the global budget
// is what ends tenants). A single-tenant scenario drives its program's
// stream.
func (r *Runner) Run(m *sim.Machine, accesses uint64) {
	if r.tn != nil {
		r.tn.Run(m, accesses)
		return
	}
	r.prog.Run(m, accesses)
}

// Name implements sim.Workload.
func (p *program) Name() string { return p.name }

// Run implements sim.Workload by driving the stream alone; its final
// zero-length Fill applies the churn of phases after the budget is
// spent.
func (p *program) Run(m *sim.Machine, accesses uint64) { workload.Run(m, p, accesses) }

// Stream implements workload.Streamer: phases execute in order, each
// driven until the space's cumulative access count reaches the phase's
// share of the budget. Weights split the budget proportionally with
// integer truncation; the rounding remainder lands on the last source
// phase, so the run always issues exactly `budget` accesses. Churn
// (Free, then Grow with init touches) applies at phase entry; init
// touches are charged against the whole run's budget, exactly like a
// workload's allocation sweep.
//
// Determinism: every random stream is derived from the machine seed,
// the scenario name and the phase index (SplitMix64 over FNV-1a), so a
// fixed (spec, machine config, budget) triple always produces a
// byte-identical access stream and event trace.
func (p *program) Stream(m *sim.Machine, budget uint64) workload.Stream {
	var total float64
	for i := range p.phases {
		total += p.phases[i].p.effWeight()
	}
	budgets := make([]uint64, len(p.phases))
	var used uint64
	lastSrc := -1
	for i := range p.phases {
		if p.phases[i].p.isSource() {
			lastSrc = i
		}
		b := uint64(float64(budget) * p.phases[i].p.effWeight() / total)
		budgets[i] = b
		used += b
	}
	if lastSrc >= 0 && budget > used {
		budgets[lastSrc] += budget - used
	}
	regions := map[string]vm.Region{}
	var segs []workload.Seg
	var target uint64
	for i := range p.phases {
		cp := &p.phases[i]
		target += budgets[i]
		t := target
		segs = append(segs, func(uint64) (uint64, workload.Stream) {
			for _, name := range cp.p.Free {
				if reg, ok := regions[name]; ok {
					m.FreeRegion(reg)
					delete(regions, name)
				}
			}
			return 0, nil
		})
		for _, g := range cp.p.Grow {
			segs = append(segs, func(done uint64) (uint64, workload.Stream) {
				reg := m.Reserve(g.Bytes)
				regions[g.Name] = reg
				if g.SkipInit {
					return 0, nil
				}
				return done + reg.Pages, workload.Sweep(reg.BaseVPN, reg.Pages)
			})
		}
		switch {
		case cp.src != nil:
			segs = append(segs, func(uint64) (uint64, workload.Stream) { return t, cp.src.Stream(m, t) })
		case len(cp.p.Mix) > 0:
			segs = append(segs, func(uint64) (uint64, workload.Stream) { return t, p.mix(m, i, regions) })
		}
	}
	return workload.NewSeq(m, budget, segs)
}

// mix is one mix phase's stream over the regions live at its start.
func (p *program) mix(m *sim.Machine, phase int, regions map[string]vm.Region) workload.Stream {
	seed := int64(splitmix64(uint64(m.Cfg.Seed) ^ splitmix64(fnv1a(p.name)+uint64(phase)+1)))
	rng := rand.New(rand.NewSource(seed))
	type arm struct {
		base  uint64
		src   dist.Source
		write int
	}
	mix := p.phases[phase].p.Mix
	arms := make([]arm, 0, len(mix))
	weights := make([]int, 0, len(mix))
	total := 0
	for _, e := range mix {
		reg := regions[e.Region]
		var src dist.Source
		switch e.Dist {
		case "zipf":
			src = dist.NewZipf(rng, e.S, reg.Pages)
		case "uniform":
			src = dist.NewUniform(rng, reg.Pages)
		case "seq":
			src = dist.NewSequential(reg.Pages)
		}
		if e.Scramble {
			src = dist.NewScrambled(src)
		}
		w := e.Weight
		if w == 0 {
			w = 1
		}
		arms = append(arms, arm{base: reg.BaseVPN, src: src, write: e.WritePercent})
		total += w
		weights = append(weights, total)
	}
	return workload.Steps(func() (uint64, bool) {
		pick := rng.Intn(total)
		idx := 0
		for weights[idx] <= pick {
			idx++
		}
		a := &arms[idx]
		return a.base + a.src.Next(), rng.Intn(100) < a.write
	})
}

var (
	_ sim.Workload      = (*Runner)(nil)
	_ workload.Streamer = (*program)(nil)
)
