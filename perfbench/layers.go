package main

// The traced run. It times the workload's rounds untraced and traced
// (each cell timed by the benchmark's own pool), then breaks the host
// time of a cell into layers by timing each layer's public entry point
// over the cell's own captured access stream, from the outside:
//
//	full      the user-facing drive: W.Run (or trace.Replay.Run) under
//	          the cell's policy, machine construction and Finish included
//	batch(P)  Machine.AccessBatch of the captured ops on an identically
//	          configured machine under policy P
//	batch(-)  the same on a policy-free machine
//	vm        AddressSpace.TouchFast (TouchLite where it declines) of every
//	          op on a fresh address space
//	tlb       TLB.Access of every op (huge flags from the vm pass)
//
// A layer's self time is its level minus the level below it:
// workload (or trace) = full - batch(P), policy.P = batch(P) - batch(-),
// sim = batch(-) - vm - tlb. The self times of a cell sum to its full
// time by construction; tenants-mix adds tenant = (the tenant machine)
// - (every tenant's model run alone). layers.accounted_frac compares
// these isolated timings with the cells' timings inside the job, and
// bench.worker_busy_frac relates the cells' summed time to wall_s.

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"memtis/internal/bench"
	"memtis/internal/dist"
	"memtis/internal/sim"
	"memtis/internal/tenant"
	"memtis/internal/tier"
	"memtis/internal/trace"
	"memtis/internal/workload"
)

// tracedRounds is how many untraced and how many traced rounds the
// traced run times; stackReps how often each isolated layer timing is
// repeated (the minimum is kept).
const (
	tracedRounds = 3
	stackReps    = 3
)

// zipfExponents are the Zipf exponents the dist metrics are drawn at.
var zipfExponents = []float64{1.15, 1.25, 1.45}

// layerRun accumulates the isolated layer timings of one traced run.
type layerRun struct {
	// accesses and fullNS total the stack cells' accesses and host ns;
	// ns holds each layer's self ns, polAcc the accesses each policy's
	// stack cells ran.
	accesses   uint64
	fullNS     float64
	ns         map[string]float64
	polAcc     map[string]uint64
	freeNS     float64
	freedPages uint64
	// Tenant figures, set by tenants-mix only.
	tenantAcc uint64
	batonFrac float64
	switches  float64
}

// stream is a captured access stream remapped onto a fresh machine's
// first reservation, as trace.Replay.Run maps it.
type stream struct {
	ops       []sim.Op
	spanBytes uint64
}

func newStream(recs []trace.Record, mc sim.Config) stream {
	st := trace.Analyze(recs, 0)
	span := (st.MaxVPN - st.MinVPN + 1) * tier.BasePageSize
	base := sim.NewMachine(mc, nil).Reserve(span).BaseVPN
	ops := make([]sim.Op, len(recs))
	for i, r := range recs {
		ops[i] = sim.Op{VPN: base + r.VPN - st.MinVPN, Write: r.Write}
	}
	return stream{ops: ops, spanBytes: span}
}

// machineFor widens mc's capacity tier to hold the whole stream: a
// replay never frees, so a stream with allocation churn (603.bwaves)
// touches more pages than the model ever holds at once.
func (s stream) machineFor(mc sim.Config) sim.Config {
	mc.CapBytes = max(mc.CapBytes, s.spanBytes+s.spanBytes/4+16*tier.HugePageSize)
	return mc
}

func newPolicy(name string) sim.Policy {
	if name == "" {
		return nil
	}
	return bench.NewPolicy(name)
}

// minTime runs fn reps times and returns its fastest host time in ns.
func minTime(reps int, fn func()) float64 {
	return minSpan(reps, func() float64 {
		t0 := time.Now()
		fn()
		return float64(time.Since(t0).Nanoseconds())
	})
}

// minSpan runs fn reps times and returns the smallest span, in ns, it
// reports timing itself.
func minSpan(reps int, fn func() float64) float64 {
	best := fn()
	for i := 1; i < reps; i++ {
		best = min(best, fn())
	}
	return best
}

// sink keeps the compiler from discarding timed loops' results.
var sink uint64

// stack times one captured stream's layers under each of pols. full(p)
// runs the user-facing drive of the stream under p, cfgFor(p) gives the
// cell's machine ("" = the policy-free one), and outer names the layer
// full - batch(p) is charged to.
func (l *layerRun) stack(st stream, pols []string, cfgFor func(p string) sim.Config, full func(p string), outer string) {
	n := uint64(len(st.ops))
	batch := func(p string) func() {
		return func() {
			m := sim.NewMachine(st.machineFor(cfgFor(p)), newPolicy(p))
			m.Reserve(st.spanBytes)
			m.AccessBatch(st.ops)
			m.Finish("replay")
		}
	}
	batchNil := minTime(stackReps, batch(""))
	huge := make([]bool, n)
	vmNS := minSpan(stackReps, func() float64 {
		m := sim.NewMachine(st.machineFor(cfgFor("")), nil)
		r := m.Reserve(st.spanBytes)
		t0 := time.Now()
		// The policy-free Machine.Access path: TouchFast, and TouchLite
		// for first writes and faults.
		for i, op := range st.ops {
			_, h, ok := m.AS.TouchFast(op.VPN, op.Write)
			if !ok {
				h = m.AS.TouchLite(op.VPN, op.Write).Huge
			}
			huge[i] = h
		}
		d := time.Since(t0)
		pages := m.AS.ResidentUnits()
		t1 := time.Now()
		m.AS.Free(r)
		l.freeNS += float64(time.Since(t1).Nanoseconds())
		l.freedPages += pages
		return float64(d.Nanoseconds())
	})
	tlbNS := minSpan(stackReps, func() float64 {
		tl := sim.NewMachine(cfgFor(""), nil).TLB
		var s uint64
		t0 := time.Now()
		for i, op := range st.ops {
			s += tl.Access(op.VPN, huge[i])
		}
		sink += s
		return float64(time.Since(t0).Nanoseconds())
	})
	for _, p := range pols {
		f := minTime(stackReps, func() { full(p) })
		b := minTime(stackReps, batch(p))
		l.ns[outer] += f - b
		l.ns["policy."+p] += b - batchNil
		l.ns["sim"] += batchNil - vmNS - tlbNS
		l.ns["vm"] += vmNS
		l.ns["tlb"] += tlbNS
		l.polAcc[p] += n
		l.fullNS += f
		l.accesses += n
	}
}

// fig5 stacks every model's 1:8 cells under the seven Figure-5
// policies.
func (l *layerRun) fig5(models []string, cfg bench.Config) error {
	for _, name := range models {
		w, err := workload.New(name)
		if err != nil {
			return err
		}
		ccfg := bench.CellConfig(cfg, name, "1:8", "stack")
		cfgFor := func(p string) sim.Config {
			return bench.MachineFor(w.Spec(), bench.Ratio1to8, policyOr(p, "memtis"), ccfg)
		}
		_, recs, err := captureStream(w, cfgFor(""), cfg.Accesses)
		if err != nil {
			return err
		}
		full := func(p string) { sim.Run(cfgFor(p), bench.NewPolicy(p), w, cfg.Accesses) }
		l.stack(newStream(recs, cfgFor("")), bench.Policies, cfgFor, full, "workload")
	}
	return nil
}

// replay stacks the replay cells: here the outer layer is the trace
// replay loop, and generation happened in set-up.
func (l *layerRun) replay(recs []trace.Record, cellCfg func(string) sim.Config, full func(string)) error {
	cfgFor := func(p string) sim.Config { return cellCfg(policyOr(p, "memtis")) }
	l.stack(newStream(recs, cfgFor("")), replayPolicies, cfgFor, full, "trace")
	return nil
}

// tenants stacks each cell's tenants, each tenant's model run alone
// (memtis, 1:8, its own footprint and its access count in the mix);
// the tenant layer is the tenant machine minus those solo runs.
func (l *layerRun) tenants(tn *tenant.Runner, ws []*workload.W, rss uint64, ccfgs []bench.Config, cells []cell) error {
	const pol = "memtis"
	streamers := 0
	for _, w := range ws {
		if _, ok := sim.Workload(w).(workload.Streamer); ok {
			streamers++
		}
	}
	l.batonFrac = 1 - float64(streamers)/float64(len(ws))
	for ci, ccfg := range ccfgs {
		res := cells[ci].res
		mixNS := minTime(stackReps, func() { bench.RunTenants(tn, rss, pol, bench.Ratio1to8, ccfg) })
		aloneNS := l.fullNS
		for i, w := range ws {
			n := res.Tenants[i].Accesses
			scfg := bench.CellConfig(ccfg, w.Name(), "1:8", "alone")
			cfgFor := func(string) sim.Config { return bench.MachineFor(w.Spec(), bench.Ratio1to8, pol, scfg) }
			_, recs, err := captureStream(w, cfgFor(""), n)
			if err != nil {
				return err
			}
			full := func(p string) { sim.Run(cfgFor(p), bench.NewPolicy(p), w, n) }
			l.stack(newStream(recs, cfgFor("")), []string{pol}, cfgFor, full, "workload")
		}
		aloneNS = l.fullNS - aloneNS
		l.ns["tenant"] += mixNS - aloneNS
		l.fullNS += mixNS - aloneNS
		l.tenantAcc += res.Accesses
	}
	return nil
}

func policyOr(p, def string) string {
	if p == "" {
		return def
	}
	return p
}

// zipfNS times one draw of math/rand.Zipf and of dist.Zipf at exponent
// s over a million ranks.
func zipfNS(s float64) (randNS, distNS float64) {
	const n, draws = 1 << 20, 1 << 21
	randNS = minTime(3, func() {
		z := rand.NewZipf(rand.New(rand.NewSource(1)), s, 1, n-1)
		var x uint64
		for i := 0; i < draws; i++ {
			x += z.Uint64()
		}
		sink += x
	}) / draws
	distNS = minTime(3, func() {
		z := dist.NewZipf(rand.New(rand.NewSource(1)), s, n)
		var x uint64
		for i := 0; i < draws; i++ {
			x += z.Next()
		}
		sink += x
	}) / draws
	return randNS, distNS
}

// gcSample reads the Go runtime's cumulative allocation and CPU
// figures.
type gcSample struct{ alloc, gcCPU, totalCPU float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	runtime.GC() // settles the CPU-class estimates
	metrics.Read(s)
	return gcSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// traced is the traced run: every per-layer metric.
func (b *benchRun) traced() (report, error) {
	p, err := b.def.prepare(b.seed, b.sz)
	if err != nil {
		return report{}, fmt.Errorf("%s: set-up: %w", b.def.name, err)
	}
	if err := b.loadRef(p); err != nil {
		return report{}, err
	}
	var untracedWalls, tracedWalls, cellMS, busy, cellSum []float64
	// A warm-up round first: the untraced rounds are the reference of
	// trace_overhead and must not carry the process's cold start.
	warm, err := p.round(b.workers, false)
	if err != nil {
		return report{}, err
	}
	b.verify(p, warm)
	g0 := readGC()
	for i := 0; i < tracedRounds; i++ {
		runtime.GC()
		t0 := time.Now()
		cells, err := p.round(b.workers, false)
		untracedWalls = append(untracedWalls, time.Since(t0).Seconds())
		if err != nil {
			return report{}, err
		}
		b.verify(p, cells)
	}
	g1 := readGC()
	var last []cell
	for i := 0; i < tracedRounds; i++ {
		runtime.GC()
		t0 := time.Now()
		cells, err := p.round(b.workers, true)
		wall := time.Since(t0).Seconds()
		if err != nil {
			return report{}, err
		}
		tracedWalls = append(tracedWalls, wall)
		b.verify(p, cells)
		last = append(cells, p.extra...)
		var sum float64
		for _, c := range last {
			cellMS = append(cellMS, float64(c.dur.Nanoseconds())/1e6)
			sum += c.dur.Seconds()
		}
		cellSum = append(cellSum, sum)
		busy = append(busy, sum/(float64(min(b.workers, len(last)))*wall))
	}

	l := &layerRun{ns: map[string]float64{}, polAcc: map[string]uint64{}}
	if err := p.layers(l, last); err != nil {
		return report{}, err
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	perAcc := func(layer string) float64 { return l.ns[layer] / float64(max(l.accesses, 1)) }

	put("bench.cells", float64(len(last)), "count")
	put("bench.cell_ms_p50", percentile(cellMS, 50), "ms")
	put("bench.cell_ms_p90", percentile(cellMS, 90), "ms")
	put("bench.worker_busy_frac", median(busy), "ratio")

	put("workload.ns_per_access", perAcc("workload"), "ns")
	put("workload.share", l.ns["workload"]/l.fullNS, "ratio")
	for _, e := range zipfExponents {
		r, d := zipfNS(e)
		put(fmt.Sprintf("dist.rand_zipf_ns.s%.2f", e), r, "ns")
		put(fmt.Sprintf("dist.zipf_ns.s%.2f", e), d, "ns")
	}
	put("trace.replay_ns_per_access", perAcc("trace"), "ns")
	put("sim.ns_per_access", perAcc("sim"), "ns")
	put("tlb.ns_per_access", perAcc("tlb"), "ns")
	put("vm.touch_ns", perAcc("vm"), "ns")
	put("vm.free_ns_per_page", l.freeNS/float64(max(l.freedPages, 1)), "ns")
	for _, pol := range bench.Policies {
		v := 0.0
		if a := l.polAcc[pol]; a > 0 {
			v = l.ns["policy."+pol] / float64(a)
		}
		put("policy."+pol+".ns_per_access", v, "ns")
	}
	tenantNS := 0.0
	if l.tenantAcc > 0 {
		tenantNS = l.ns["tenant"] / float64(l.tenantAcc)
	}
	put("tenant.overhead_ns_per_access", tenantNS, "ns")
	put("tenant.baton_frac", l.batonFrac, "ratio")
	put("tenant.switches", l.switches, "count")

	c := countCells(last)
	put("sim.virtual_ns_per_access", c.appNS/c.accesses, "ns")
	put("tlb.miss_ratio", c.tlbMiss/max(c.tlbLookups, 1), "ratio")
	put("vm.faults", c.faults, "count")
	put("vm.migrated_pages", c.migrated, "count")
	put("vm.splits", c.splits, "count")
	put("pebs.samples", c.counter["memtis/samples"], "count")
	put("core.coolings", c.counter["memtis/coolings"], "count")
	put("core.splits", c.counter["memtis/splits"], "count")
	put("policy.daemon_util", c.daemonUtil, "cores")
	put("tenant.promotions_denied", c.tenantSum("promotions_denied"), "count")
	put("tenant.floor_violations", c.tenantSum("floor_violations"), "count")

	put("go.alloc_bytes_per_access", (g1.alloc-g0.alloc)/float64(tracedRounds*p.accesses), "B")
	put("go.gc_cpu_frac", (g1.gcCPU-g0.gcCPU)/max(g1.totalCPU-g0.totalCPU, 1e-9), "ratio")
	put("trace_overhead", median(tracedWalls)/median(untracedWalls), "ratio")
	// The isolated stack timings, scaled to the round's accesses,
	// against the cells' summed time inside the job.
	put("layers.accounted_frac", l.fullNS/float64(max(l.accesses, 1))*float64(p.accesses)/1e9/median(cellSum), "ratio")
	return b.report(m), nil
}

// cellCounts totals the simulated statistics of a round's cells.
type cellCounts struct {
	accesses, appNS     float64
	tlbMiss, tlbLookups float64
	faults, migrated    float64
	splits, daemonUtil  float64
	counter             map[string]float64
}

func countCells(cells []cell) cellCounts {
	c := cellCounts{counter: map[string]float64{}}
	pols := 0
	for _, cl := range cells {
		r := cl.res
		c.accesses += float64(r.Accesses)
		c.appNS += float64(r.AppNS)
		c.tlbMiss += float64(r.TLB.Misses4K + r.TLB.Misses2M)
		c.tlbLookups += float64(r.TLB.Lookups4K + r.TLB.Lookups2M)
		c.faults += float64(r.VM.Faults)
		c.migrated += float64(r.VM.Migrations4K + r.VM.MigrationsHuge)
		c.splits += float64(r.VM.Splits)
		if r.Policy != "all-capacity" {
			c.daemonUtil += r.DaemonUtil
			pols++
		}
		for _, mt := range r.Counters {
			c.counter[mt.Name] += float64(mt.Value)
		}
	}
	c.daemonUtil /= float64(max(pols, 1))
	return c
}

// tenantSum totals a per-tenant counter over every tenant.
func (c cellCounts) tenantSum(name string) float64 {
	var s float64
	for k, v := range c.counter {
		if strings.HasPrefix(k, "tenant/") && strings.HasSuffix(k, "/"+name) {
			s += v
		}
	}
	return s
}
