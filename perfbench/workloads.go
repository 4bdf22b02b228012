package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"memtis/internal/bench"
	"memtis/internal/obs"
	"memtis/internal/sim"
	"memtis/internal/tenant"
	"memtis/internal/tier"
	"memtis/internal/trace"
	"memtis/internal/workload"
)

// sizes fixes how much simulated work one round of each workload does.
type sizes struct {
	fig5Accesses   uint64  // access budget of every fig5-matrix cell
	replayAccesses uint64  // captured btree stream and replay budget
	tenantAccesses uint64  // access budget of each tenants-mix machine
	tenantScale    float64 // factor applied to each Table-2 RSS in tenants-mix
}

// defaultSizes gives rounds of a few host seconds (fig5-matrix) down to
// a few tenths (replay-btree) on a 2-core host, so a run of tens of
// seconds holds enough rounds for a steady median.
var defaultSizes = sizes{
	fig5Accesses:   300_000,
	replayAccesses: 2_000_000,
	tenantAccesses: 2_000_000,
	tenantScale:    1.0 / 8,
}

// workloadDef is one named workload of BENCHMARK.json.
type workloadDef struct {
	name    string
	prepare func(seed int64, sz sizes) (*prepared, error)
}

// prepared is a workload after set-up, ready to run rounds.
type prepared struct {
	// cellBudget is the per-cell access budget (the key of the
	// recorded digests) and accesses the simulated accesses of a round.
	cellBudget uint64
	accesses   uint64
	// labels names the digested cells of a round, in order.
	labels []string
	// round runs one complete job. Untraced rounds take the user-facing
	// path; traced rounds run the same cells through the benchmark's
	// own pool so that each cell is timed, and return every simulated
	// cell (for fig5-matrix, the baselines too) in extra.
	round  func(workers int, traced bool) ([]cell, error)
	extra  []cell
	check  func(c cell) error
	layers func(l *layerRun, cells []cell) error
}

var workloadDefs = []*workloadDef{
	{name: "fig5-matrix", prepare: prepareFig5},
	{name: "replay-btree", prepare: prepareReplay},
	{name: "tenants-mix", prepare: prepareTenants},
}

func workloadByName(name string) (*workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var ns []string
	for _, d := range workloadDefs {
		ns = append(ns, d.name)
	}
	return ns
}

// pool runs fn(0..n-1) on at most workers goroutines and returns once
// all calls have. A panicking call is recovered into its cell's error
// by runCell, so one bad cell does not take the run down.
func pool(workers, n int, fn func(i int)) {
	workers = max(1, min(workers, n))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// runCell runs one cell, timing it and turning a panic into its error.
func runCell(c *cell, fn func() sim.Result) {
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("panic: %v", r)
		}
	}()
	t0 := time.Now()
	c.res = fn()
	c.dur = time.Since(t0)
}

// checkBudget is the outside check every cell gets: the machine ran
// exactly the access budget.
func checkBudget(budget uint64) func(c cell) error {
	return func(c cell) error {
		if c.res.Accesses != budget {
			return fmt.Errorf("Result.Accesses = %d, budget %d", c.res.Accesses, budget)
		}
		return nil
	}
}

// prepareFig5 is the Figure 5 job: the 8 Table-2 models x {1:2, 1:8,
// 1:16} x the 7 Figure-5 policies, plus each model's all-capacity
// baseline, through bench.Runner.Fig5 — what `paperfigs -only fig5`
// runs. The 168 policy cells are digested; the baselines are covered
// through the normalised values they divide.
func prepareFig5(seed int64, sz sizes) (*prepared, error) {
	cfg := bench.DefaultConfig()
	cfg.Accesses, cfg.Seed = sz.fig5Accesses, seed
	var models []string
	for _, s := range workload.Specs() {
		if _, err := workload.New(s.Name); err != nil {
			return nil, err
		}
		models = append(models, s.Name)
	}
	p := &prepared{cellBudget: cfg.Accesses, check: checkBudget(cfg.Accesses)}
	for _, w := range models {
		for _, r := range bench.MainRatios {
			for _, pol := range bench.Policies {
				p.labels = append(p.labels, w+"/"+r.Name+"/"+pol)
			}
		}
	}
	perModel := len(bench.MainRatios)*len(bench.Policies) + 1
	p.accesses = uint64(len(models)*perModel) * cfg.Accesses
	p.round = func(workers int, traced bool) ([]cell, error) {
		if !traced {
			m, _, err := bench.Parallel(workers).Fig5(context.Background(), cfg, models, bench.MainRatios, bench.Policies)
			if err != nil {
				return nil, err
			}
			cells := make([]cell, len(m.Cells))
			for i, c := range m.Cells {
				cells[i] = cell{label: c.Workload + "/" + c.Ratio + "/" + c.Policy, res: c.Result, value: c.Value}
			}
			return cells, nil
		}
		// The same tasks in the same order as bench.Runner.RunMatrix,
		// each timed: a baseline, then the model's policy cells.
		all := make([]cell, len(models)*perModel)
		pool(workers, len(all), func(i int) {
			w, k := models[i/perModel], i%perModel
			c := &all[i]
			if k == 0 {
				c.label = w + "/baseline"
				runCell(c, func() sim.Result {
					return bench.RunBaseline(w, bench.CellConfig(cfg, w, "baseline", "all-capacity"))
				})
				return
			}
			r, pol := bench.MainRatios[(k-1)/len(bench.Policies)], bench.Policies[(k-1)%len(bench.Policies)]
			c.label = w + "/" + r.Name + "/" + pol
			runCell(c, func() sim.Result {
				return bench.RunOne(w, pol, r, bench.CellConfig(cfg, w, r.Name, pol))
			})
		})
		var cells []cell
		p.extra = p.extra[:0]
		for i := 0; i < len(all); i += perModel {
			base := all[i]
			p.extra = append(p.extra, base)
			for _, c := range all[i+1 : i+perModel] {
				c.value = bench.Norm(c.res, base.res)
				cells = append(cells, c)
			}
		}
		return cells, nil
	}
	p.layers = func(l *layerRun, _ []cell) error { return l.fig5(models, cfg) }
	return p, nil
}

// replayPolicies are the replay-btree cells: memtis takes the
// FastSampled bypass, tpp calls OnAccess on every access.
var replayPolicies = []string{"memtis", "tpp"}

// prepareReplay captures btree's access stream once (set-up) and
// replays it with trace.Replay under memtis and under tpp on 1:8
// machines, so generation costs almost nothing in the timed phase.
func prepareReplay(seed int64, sz sizes) (*prepared, error) {
	const model = "btree"
	cfg := bench.DefaultConfig()
	cfg.Accesses, cfg.Seed = sz.replayAccesses, seed
	w, err := workload.New(model)
	if err != nil {
		return nil, err
	}
	capCfg := bench.MachineFor(w.Spec(), bench.Ratio1to8, "memtis", bench.CellConfig(cfg, model, "capture", "none"))
	rp, recs, err := captureStream(w, capCfg, cfg.Accesses)
	if err != nil {
		return nil, err
	}
	// The fast tier is 1/9 of btree's RSS, as in the figure job. The
	// capacity tier holds the whole replayed span: Replay.Run maps the
	// trace into one region, so btree's 512KB small allocations, each
	// 2MB-aligned when recorded, fault in as huge pages.
	span := rp.SpanPages() * tier.BasePageSize
	cellCfg := func(pol string) sim.Config {
		mc := bench.MachineFor(w.Spec(), bench.Ratio1to8, pol, bench.CellConfig(cfg, "replay-btree", "1:8", pol))
		mc.CapBytes = max(mc.CapBytes, span+span/4+16*tier.HugePageSize)
		return mc
	}
	p := &prepared{
		cellBudget: cfg.Accesses,
		accesses:   uint64(len(replayPolicies)) * cfg.Accesses,
		check:      checkBudget(cfg.Accesses),
	}
	for _, pol := range replayPolicies {
		p.labels = append(p.labels, model+"/1:8/"+pol)
	}
	p.round = func(workers int, _ bool) ([]cell, error) {
		cells := make([]cell, len(replayPolicies))
		pool(workers, len(cells), func(i int) {
			pol := replayPolicies[i]
			cells[i].label = p.labels[i]
			runCell(&cells[i], func() sim.Result {
				return sim.Run(cellCfg(pol), bench.NewPolicy(pol), rp, cfg.Accesses)
			})
		})
		return cells, nil
	}
	p.layers = func(l *layerRun, _ []cell) error {
		return l.replay(recs, cellCfg, func(pol string) { sim.Run(cellCfg(pol), bench.NewPolicy(pol), rp, cfg.Accesses) })
	}
	return p, nil
}

// captureStream runs w on a policy-free machine and records its access
// stream with trace.Capture.
func captureStream(w sim.Workload, mc sim.Config, accesses uint64) (*trace.Replay, []trace.Record, error) {
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, nil, err
	}
	m := sim.NewMachine(mc, nil)
	detach := trace.Capture(m, tw)
	w.Run(m, accesses)
	detach()
	if err := tw.Flush(); err != nil {
		return nil, nil, err
	}
	tr, err := trace.NewReader(&buf)
	if err != nil {
		return nil, nil, err
	}
	// Read into a slice sized from the writer's count: growing it by
	// appends would leave its old copies behind as garbage, and peak
	// host memory would then depend on when the collector ran.
	recs := make([]trace.Record, tw.Count())
	for i := range recs {
		if recs[i], err = tr.Next(); err != nil {
			return nil, nil, err
		}
	}
	return trace.NewReplay(w.Name(), recs), recs, nil
}

// tenantMix is the tenants-mix configuration: one tenant per Table-2
// model (distinct models, because two tenants of one model would draw
// identical streams), footprints scaled by sz.tenantScale; tenant 0
// has weight 8 and a fast-tier floor, tenants 1 and 7 spawn late and
// exit early.
func tenantMix(sz sizes) (tenant.Config, []*workload.W, uint64, error) {
	var (
		tc  tenant.Config
		ws  []*workload.W
		rss uint64
	)
	for _, s := range workload.Specs() {
		w, err := workload.NewScaled(s.Name, s.PaperRSSGB*sz.tenantScale)
		if err != nil {
			return tc, nil, 0, err
		}
		ws = append(ws, w)
		rss += w.Spec().RSSBytes()
	}
	for i, w := range ws {
		ts := tenant.Spec{Name: w.Name(), Weight: 1, Workload: w}
		switch i {
		case 0:
			ts.Weight = 8
			ts.FloorBytes = uint64(float64(rss)*bench.Ratio1to8.FastFrac) / 4
		case 1, len(ws) - 1:
			ts.SpawnFrac, ts.ExitFrac = 0.2, 0.7
		}
		tc.Tenants = append(tc.Tenants, ts)
	}
	return tc, ws, rss, nil
}

// tenantSeeds is how many tenant machines a tenants-mix round runs,
// each seeded differently: one machine's host time depends on its seed
// by several percent, and a round should not.
const tenantSeeds = 8

// prepareTenants is eight tenants on one memtis machine at 1:8,
// scheduled by package tenant and run through bench.RunTenants; a
// round runs that machine at tenantSeeds seeds.
func prepareTenants(seed int64, sz sizes) (*prepared, error) {
	cfg := bench.DefaultConfig()
	cfg.Accesses, cfg.Seed = sz.tenantAccesses, seed
	tc, ws, rss, err := tenantMix(sz)
	if err != nil {
		return nil, err
	}
	tn, err := tenant.New(tc)
	if err != nil {
		return nil, err
	}
	const pol = "memtis"
	p := &prepared{
		cellBudget: cfg.Accesses,
		accesses:   tenantSeeds * cfg.Accesses,
	}
	ccfgs := make([]bench.Config, tenantSeeds)
	for i := range ccfgs {
		ratio := fmt.Sprintf("1:8/s%d", i)
		ccfgs[i] = bench.CellConfig(cfg, "tenants-mix", ratio, pol)
		p.labels = append(p.labels, "tenants-mix/"+ratio+"/"+pol)
	}
	budget := checkBudget(cfg.Accesses)
	p.check = func(c cell) error {
		if err := budget(c); err != nil {
			return err
		}
		var sum uint64
		for _, t := range c.res.Tenants {
			sum += t.Accesses
		}
		if len(c.res.Tenants) != len(tc.Tenants) || sum != c.res.Accesses {
			return fmt.Errorf("%d tenant rows summing to %d accesses, want %d rows summing to %d",
				len(c.res.Tenants), sum, len(tc.Tenants), c.res.Accesses)
		}
		return nil
	}
	switches := make([]switchCounter, tenantSeeds)
	p.round = func(workers int, traced bool) ([]cell, error) {
		cells := make([]cell, tenantSeeds)
		pool(workers, len(cells), func(i int) {
			cells[i].label = p.labels[i]
			rcfg := ccfgs[i]
			if traced {
				// Switches are counted by an event sink; tracing is
				// observational, so the digest must not change.
				switches[i] = switchCounter{}
				rcfg.Trace = obs.NewTracer(&switches[i])
			}
			runCell(&cells[i], func() sim.Result { return bench.RunTenants(tn, rss, pol, bench.Ratio1to8, rcfg) })
		})
		return cells, nil
	}
	p.layers = func(l *layerRun, cells []cell) error {
		for _, s := range switches {
			l.switches += float64(s.n)
		}
		return l.tenants(tn, ws, rss, ccfgs, cells)
	}
	return p, nil
}

// switchCounter is an obs.Sink counting tenant switches.
type switchCounter struct{ n uint64 }

func (s *switchCounter) Emit(e obs.Event) {
	if e.Kind == obs.EvTenantSwitch {
		s.n++
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
