package bench

import (
	"context"
	"fmt"

	memtis "memtis/internal/core"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/workload"
)

// Fig5 runs the headline comparison: every workload x ratio x system,
// normalised to the all-capacity-tier (THP) run, plus the geomean row.
// Sequential convenience wrapper over Runner.Fig5.
func Fig5(cfg Config, workloads []string, ratios []Ratio, pols []string) (*Matrix, Table) {
	m, t, _ := Sequential().Fig5(context.Background(), cfg, workloads, ratios, pols)
	return m, t
}

// Fig5 is the headline comparison run through the worker pool: the full
// cell matrix plus baselines fan out; rows assemble in plot order.
func (r *Runner) Fig5(ctx context.Context, cfg Config, workloads []string, ratios []Ratio, pols []string) (*Matrix, Table, error) {
	m, t, err := r.RunMatrix(ctx, cfg, workloads, ratios, pols)
	t.Title = fmt.Sprintf("Figure 5: normalized performance (capacity tier: %s)", cfg.CapKind)
	return m, t, err
}

// Fig6 is the Graph500 scalability sweep: paper RSS 128GB to 690GB with
// the fast tier fixed at 64GB. A tighter scale (1GB = 2MB) keeps the
// large points tractable. Sequential wrapper over Runner.Fig6.
func Fig6(cfg Config, pols []string) (*Matrix, Table) {
	m, t, _ := Sequential().Fig6(context.Background(), cfg, pols)
	return m, t
}

// Fig6 fans the per-size baseline and policy runs out to the pool.
func (r *Runner) Fig6(ctx context.Context, cfg Config, pols []string) (*Matrix, Table, error) {
	if pols == nil {
		pols = Policies
	}
	const scale = 2 << 20 // bytes per paper-GB for this figure
	sizes := []float64{128, 192, 336, 690}
	const fastGB = 64
	var cells []sweepCell
	for _, gb := range sizes {
		coord := fmt.Sprintf("%.0fGB", gb)
		rss := uint64(gb * scale)
		run := func(p string) func(Config) sim.Result {
			return func(c Config) sim.Result {
				w, _ := workload.NewScaled("graph500", gb*scale/workload.BytesPerPaperGB)
				fast := uint64(fastGB * scale)
				switch p {
				case "all-capacity":
					fast, c.RecordNS = minFast, 0
				case "hemem":
					if over := w.Spec().SmallBytes(); over < fast/2 {
						fast -= over
					}
				}
				// Access budget grows with footprint so init stays a fraction.
				acc := c.Accesses + rss/tier.BasePageSize*3
				return sim.Run(machine(fast, capacityFor(rss), true, c), NewPolicy(p), w, acc)
			}
		}
		cells = append(cells, sweepCell{workload: "graph500", coord: coord, policy: "all-capacity",
			label: "graph500/" + coord + "/baseline", run: run("all-capacity")})
		for _, p := range pols {
			cells = append(cells, sweepCell{workload: "graph500", coord: coord, policy: p, run: run(p)})
		}
	}
	m, err := r.sweep(ctx, cfg, cells, blockRef(1+len(pols)))
	if err != nil {
		return nil, Table{}, err
	}
	return m, sweepTable("Figure 6: Graph500 under varying RSS (fast tier fixed 64GB-equivalent)",
		append([]string{"rss_gb"}, pols...), m, len(sizes),
		func(i int) []interface{} { return []interface{}{fmt.Sprintf("%.0f", sizes[i])} }), nil
}

// Fig7 is the 2:1 configuration (Meta's production target): MEMTIS vs
// TPP with all-DRAM (with and without THP) references. Sequential
// wrapper over Runner.Fig7.
func Fig7(cfg Config) (*Matrix, Table) {
	m, t, _ := Sequential().Fig7(context.Background(), cfg)
	return m, t
}

// Fig7 fans each workload's five runs (baseline, two all-DRAM
// references, TPP, MEMTIS) out to the pool.
func (r *Runner) Fig7(ctx context.Context, cfg Config) (*Matrix, Table, error) {
	workloads := workloadNames()
	var cells []sweepCell
	for _, w := range workloads {
		cells = append(cells,
			sweepCell{workload: w, coord: "baseline", policy: "all-capacity", label: w + "/2:1/baseline",
				run: func(c Config) sim.Result { return RunBaseline(w, c) }},
			sweepCell{workload: w, coord: "2:1", policy: "all-dram-thp",
				run: func(c Config) sim.Result { return RunAllFast(w, true, c) }},
			sweepCell{workload: w, coord: "2:1", policy: "all-dram-nothp",
				run: func(c Config) sim.Result { return RunAllFast(w, false, c) }})
		for _, p := range []string{"tpp", "memtis"} {
			cells = append(cells, sweepCell{workload: w, coord: "2:1", policy: p,
				run: func(c Config) sim.Result { return RunOne(w, p, Ratio2to1, c) }})
		}
	}
	m, err := r.sweep(ctx, cfg, cells, blockRef(5))
	if err != nil {
		return nil, Table{}, err
	}
	// The all-DRAM references are plotted as values only: their counters
	// stay out of the per-cell dump.
	for i := 0; i < len(m.Cells); i += 4 {
		m.Cells[i].Result, m.Cells[i+1].Result = sim.Result{}, sim.Result{}
	}
	return m, sweepTable("Figure 7: 2:1 configuration",
		[]string{"workload", "alldram_thp", "alldram_nothp", "tpp", "memtis"}, m, len(workloads),
		func(i int) []interface{} { return []interface{}{workloads[i]} }), nil
}

// Fig8 compares MEMTIS against HeMem and HeMem+ with 16 application
// threads (no CPU contention for HeMem's spinning sampler) under 1:2.
// Sequential wrapper over Runner.Fig8.
func Fig8(cfg Config) (*Matrix, Table) {
	m, t, _ := Sequential().Fig8(context.Background(), cfg)
	return m, t
}

// Fig8 fans the 16-thread HeMem comparison out to the pool.
func (r *Runner) Fig8(ctx context.Context, cfg Config) (*Matrix, Table, error) {
	cfg.Threads = 16
	workloads := workloadNames()
	pols := []string{"hemem", "hemem+", "memtis"}
	m, _, err := r.RunMatrix(ctx, cfg, workloads, []Ratio{Ratio1to2}, pols)
	if err != nil {
		return nil, Table{}, err
	}
	return m, sweepTable("Figure 8: MEMTIS vs HeMem/HeMem+ with 16 threads (1:2)",
		append([]string{"workload"}, pols...), m, len(workloads),
		func(i int) []interface{} { return []interface{}{workloads[i]} }), nil
}

// Fig9Series is MEMTIS's identified hot/warm/cold sizes over time.
type Fig9Series struct {
	Workload  string
	Ratio     string
	FastBytes uint64
	Points    []sim.SeriesPoint
}

// Fig9 records MEMTIS's hot-set tracking for four workloads under 1:2
// and 1:8: the identified hot set should hug the fast tier size.
func Fig9(cfg Config) ([]Fig9Series, Table) {
	cfg.RecordNS = recordPeriod(cfg)
	var out []Fig9Series
	t := Table{
		Title:  "Figure 9: hot/warm/cold identified by MEMTIS",
		Header: []string{"workload", "ratio", "fast_mb", "hot_mean_mb", "hot_final_mb"},
	}
	for _, wname := range []string{"pagerank", "xsbench", "liblinear", "603.bwaves"} {
		for _, r := range []Ratio{Ratio1to2, Ratio1to8} {
			w := workload.MustNew(wname)
			mc := MachineFor(w.Spec(), r, "memtis", cfg)
			res := sim.Run(mc, NewPolicy("memtis"), w, cfg.Accesses)
			s := Fig9Series{Workload: wname, Ratio: r.Name, FastBytes: mc.FastBytes, Points: res.Series}
			out = append(out, s)
			var sum, final uint64
			var n int
			// Skip the allocation warm-up third.
			for i, p := range res.Series {
				if i < len(res.Series)/3 {
					continue
				}
				sum += p.HotBytes
				final = p.HotBytes
				n++
			}
			meanHot := uint64(0)
			if n > 0 {
				meanHot = sum / uint64(n)
			}
			t.AddRow(wname, r.Name, mb(mc.FastBytes), mb(meanHot), mb(final))
		}
	}
	return out, t
}

// Fig10Row is one workload's ablation outcome.
type Fig10Row struct {
	Workload       string
	PerfVanilla    float64 // normalised to capacity baseline
	PerfSplit      float64
	PerfFull       float64
	TrafficVanilla uint64 // migrated bytes
	TrafficSplit   uint64
	TrafficFull    uint64
}

// Fig10 is the warm-set and split ablation under 1:8: performance and
// migration traffic for vanilla (no split, no warm set), +split, and
// +split+warm (full MEMTIS). Sequential wrapper over Runner.Fig10.
func Fig10(cfg Config) ([]Fig10Row, Table) {
	rows, t, _ := Sequential().Fig10(context.Background(), cfg)
	return rows, t
}

// Fig10 fans each workload's baseline and three ablation runs out to
// the pool. All of them draw the one access stream of cfg.Seed, so the
// variants differ by mechanism alone.
func (r *Runner) Fig10(ctx context.Context, cfg Config) ([]Fig10Row, Table, error) {
	pols := []string{"memtis-vanilla", "memtis-nowarm", "memtis"}
	var cells []sweepCell
	for _, w := range workloadNames() {
		cells = append(cells, sweepCell{workload: w, coord: "baseline", policy: "all-capacity", label: w + "/baseline",
			run: sharedSeed(cfg.Seed, func(c Config) sim.Result { return RunBaseline(w, c) })})
		for _, p := range pols {
			cells = append(cells, sweepCell{workload: w, coord: Ratio1to8.Name, policy: p,
				run: sharedSeed(cfg.Seed, func(c Config) sim.Result { return RunOne(w, p, Ratio1to8, c) })})
		}
	}
	m, err := r.sweep(ctx, cfg, cells, blockRef(1+len(pols)))
	if err != nil {
		return nil, Table{}, err
	}
	t := Table{
		Title:  "Figure 10: impact of warm set and huge page split (1:8)",
		Header: []string{"workload", "perf_vanilla", "perf_split", "perf_full", "traffic_vanilla_mb", "traffic_split_mb", "traffic_full_mb"},
	}
	var out []Fig10Row
	for i := 0; i < len(m.Cells); i += len(pols) {
		v, s, f := m.Cells[i], m.Cells[i+1], m.Cells[i+2]
		row := Fig10Row{
			Workload:       v.Workload,
			PerfVanilla:    v.Value,
			PerfSplit:      s.Value,
			PerfFull:       f.Value,
			TrafficVanilla: v.Result.VM.MigratedBytes,
			TrafficSplit:   s.Result.VM.MigratedBytes,
			TrafficFull:    f.Result.VM.MigratedBytes,
		}
		out = append(out, row)
		t.AddRow(row.Workload, row.PerfVanilla, row.PerfSplit, row.PerfFull,
			mb(row.TrafficVanilla), mb(row.TrafficSplit), mb(row.TrafficFull))
	}
	return out, t, nil
}

// sharedSeed runs a cell on the base seed instead of its cell seed:
// the ablation and sensitivity figures compare variants on one shared
// access stream.
func sharedSeed(seed int64, run func(Config) sim.Result) func(Config) sim.Result {
	return func(c Config) sim.Result {
		c.Seed = seed
		return run(c)
	}
}

// Fig11Series is a throughput-over-time trace for the split timeline.
type Fig11Series struct {
	Workload string
	Policy   string
	Points   []sim.SeriesPoint
	RSSFinal uint64
	Splits   uint64
}

// Fig11 records Silo and Btree throughput over time under 1:8 for
// MEMTIS, MEMTIS-NS and the best fault-based baseline: the split kicks
// in mid-run and lifts throughput; for Btree it also cuts RSS.
func Fig11(cfg Config) ([]Fig11Series, Table) {
	cfg.RecordNS = recordPeriod(cfg)
	var out []Fig11Series
	t := Table{
		Title:  "Figure 11: performance over time with and without split (1:8)",
		Header: []string{"workload", "policy", "tail_tput_Maccess_s", "rss_final_mb", "splits"},
	}
	for _, wname := range []string{"silo", "btree"} {
		for _, p := range []string{"tiering-0.8", "memtis-ns", "memtis"} {
			w := workload.MustNew(wname)
			mc := MachineFor(w.Spec(), Ratio1to8, p, cfg)
			pol := NewPolicy(p)
			m := sim.NewMachine(mc, pol)
			w.Run(m, cfg.Accesses)
			res := m.Finish(wname)
			var splits uint64
			if mp, ok := pol.(*memtis.Policy); ok {
				splits = mp.Splits()
			}
			s := Fig11Series{Workload: wname, Policy: p, Points: res.Series, RSSFinal: res.RSSFinal, Splits: splits}
			out = append(out, s)
			t.AddRow(wname, p, tailTput(res.Series)/1e6, mb(res.RSSFinal), splits)
		}
	}
	return out, t
}

// tailTput averages the last-quarter windowed throughput of a series.
func tailTput(pts []sim.SeriesPoint) float64 {
	if len(pts) == 0 {
		return 0
	}
	start := len(pts) * 3 / 4
	var s float64
	var n int
	for _, p := range pts[start:] {
		s += p.ThroughputWin
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// Fig12Row reports the three hit ratios of §6.3.3 for one workload.
type Fig12Row struct {
	Workload string
	EHR      float64 // estimated base-page hit ratio
	RHR      float64 // measured, with split
	RHRNS    float64 // measured, split disabled
}

// Fig12 compares eHR, rHR and rHR-NS under 1:8. Workloads with skewed,
// low-utilization huge pages (Silo, Btree) show a large eHR-rHRNS gap
// that splitting closes.
func Fig12(cfg Config) ([]Fig12Row, Table) {
	t := Table{
		Title:  "Figure 12: fast tier hit ratios (1:8)",
		Header: []string{"workload", "eHR", "rHR", "rHR-NS"},
	}
	var out []Fig12Row
	for _, wname := range workloadNames() {
		w1 := workload.MustNew(wname)
		mc := MachineFor(w1.Spec(), Ratio1to8, "memtis", cfg)
		polFull := memtis.New(memtis.Config{})
		m1 := sim.NewMachine(mc, polFull)
		w1.Run(m1, cfg.Accesses)

		w2 := workload.MustNew(wname)
		polNS := memtis.New(memtis.Config{SplitDisabled: true})
		m2 := sim.NewMachine(mc, polNS)
		w2.Run(m2, cfg.Accesses)

		r := Fig12Row{Workload: wname, EHR: polNS.EHR(), RHR: polFull.RHR(), RHRNS: polNS.RHR()}
		out = append(out, r)
		t.AddRow(wname, r.EHR, r.RHR, r.RHRNS)
	}
	return out, t
}

// Fig13 is the sensitivity study: threshold-adaptation and cooling
// intervals swept from 0.1x to 10x their defaults under 2:1, normalised
// to the default setting. Sequential wrapper over Runner.Fig13.
func Fig13(cfg Config) (*Matrix, Table) {
	m, t, _ := Sequential().Fig13(context.Background(), cfg)
	return m, t
}

// Fig13 fans each workload's default-interval run and its scaled
// variants out to the pool, all on the shared stream of cfg.Seed. The
// 1x cells are the default run itself, so they reuse its result.
func (r *Runner) Fig13(ctx context.Context, cfg Config) (*Matrix, Table, error) {
	muls := []float64{0.1, 0.5, 1, 2, 10}
	workloads := workloadNames()
	var cells []sweepCell
	for _, w := range workloads {
		fastUnits := MachineFor(workload.MustNew(w).Spec(), Ratio2to1, "memtis", cfg).FastBytes / tier.BasePageSize
		defAdapt := max(fastUnits/2, 512)
		defCool := defAdapt * 4
		runWith := func(adapt, cool uint64) func(Config) sim.Result {
			return sharedSeed(cfg.Seed, func(c Config) sim.Result {
				ww := workload.MustNew(w)
				pol := memtis.New(memtis.Config{AdaptEvery: adapt, CoolEvery: cool})
				return sim.Run(MachineFor(ww.Spec(), Ratio2to1, "memtis", c), pol, ww, c.Accesses)
			})
		}
		cells = append(cells, sweepCell{workload: w, coord: Ratio2to1.Name, policy: "memtis", run: runWith(defAdapt, defCool)})
		for _, param := range []string{"adapt", "cool"} {
			for _, mul := range muls {
				adapt, cool := defAdapt, defCool
				if param == "adapt" {
					adapt = max(uint64(float64(defAdapt)*mul), 1)
				} else {
					cool = max(uint64(float64(defCool)*mul), 1)
				}
				cell := sweepCell{workload: w, coord: fmt.Sprintf("%s-%gx", param, mul), policy: "memtis"}
				if mul != 1 { // the 1x cell is the default run: it reuses that result
					cell.run = runWith(adapt, cool)
				}
				cells = append(cells, cell)
			}
		}
	}
	m, err := r.sweep(ctx, cfg, cells, blockRef(1+2*len(muls)))
	if err != nil {
		return nil, Table{}, err
	}
	header := []string{"workload", "param"}
	for _, mul := range muls {
		header = append(header, fmt.Sprintf("%gx", mul))
	}
	return m, sweepTable("Figure 13: sensitivity to adaptation and cooling intervals (2:1)", header, m, 2*len(workloads),
		func(i int) []interface{} { return []interface{}{workloads[i/2], []string{"adapt", "cool"}[i%2]} }), nil
}

// Fig14 repeats the comparison with emulated CXL memory (177ns) as the
// capacity tier: MEMTIS vs TPP across the three ratios. Sequential
// wrapper over Runner.Fig14.
func Fig14(cfg Config) (*Matrix, Table) {
	m, t, _ := Sequential().Fig14(context.Background(), cfg)
	return m, t
}

// Fig14 fans the CXL-capacity-tier comparison out to the pool.
func (r *Runner) Fig14(ctx context.Context, cfg Config) (*Matrix, Table, error) {
	cfg.CapKind = tier.CXL
	m, t, err := r.RunMatrix(ctx, cfg, nil, MainRatios, []string{"tpp", "memtis"})
	if err != nil {
		return nil, Table{}, err
	}
	// The Figure 14 table has no geomean rows.
	t.Title, t.Rows = "Figure 14: MEMTIS vs TPP with CXL capacity tier", t.Rows[:len(t.Rows)-len(MainRatios)]
	return m, t, nil
}

func workloadNames() []string {
	specs := workload.Specs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}
