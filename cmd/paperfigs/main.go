// Command paperfigs regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §3 for the experiment index) and
// writes both aligned-text and CSV outputs into a results directory.
//
// The matrix-shaped experiments (fig5-fig8, fig10, fig13, fig14 and
// the three sweeps) fan their cells out to a worker pool with
// deterministic per-cell seeds (DESIGN.md §4 "Reproducibility &
// parallelism"): -parallel changes wall-clock time only, never a
// single output byte.
//
// Usage:
//
//	paperfigs                 # everything (several minutes)
//	paperfigs -only fig5,fig12
//	paperfigs -accesses 4000000 -out results
//	paperfigs -only fig5 -parallel 8
//	paperfigs -parallel 1     # sequential reference
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"memtis/internal/bench"
	"memtis/internal/render"
	"memtis/internal/scenario"
	"memtis/internal/sim"
	"memtis/internal/tier"
)

func main() {
	var (
		out      = flag.String("out", "results", "output directory")
		only     = flag.String("only", "", "comma-separated subset (fig1,fig2,fig3,fig5,fig6,fig7,fig8,fig9,fig10,fig11,fig12,fig13,fig14,table1,table2,table3,overhead,tenantsweep,faultsweep,depthsweep)")
		accesses = flag.Uint64("accesses", 2_000_000, "access budget per run")
		seed     = flag.Int64("seed", 42, "RNG seed")
		parallel = flag.Int("parallel", 0, "worker pool size for matrix experiments (0 = GOMAXPROCS, 1 = sequential)")
		quiet    = flag.Bool("quiet", false, "suppress the per-cell progress line")
		scens    = flag.String("scenarios", "", "comma-separated scenario spec files: adds a \"scenarios\" job running each through the Figure 5 policy/ratio matrix (additive; paper figures are unaffected)")
	)
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.Accesses = *accesses
	cfg.Seed = *seed

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	runner := bench.Parallel(*parallel)
	if !*quiet {
		runner.Progress = progressLine
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, f := range strings.Split(*only, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	type job struct {
		name string
		run  func() (bench.Table, error)
	}
	seqTable := func(f func() bench.Table) func() (bench.Table, error) {
		return func() (bench.Table, error) { return f(), nil }
	}
	// counted runs a Runner fan-out and dumps its per-cell counters
	// next to the table.
	counted := func(name string, run func() (*bench.Matrix, bench.Table, error)) job {
		return job{name, func() (bench.Table, error) {
			m, t, err := run()
			if err == nil {
				writeCounters(*out, name, m)
			}
			return t, err
		}}
	}
	jobs := []job{
		{"table1", seqTable(func() bench.Table { return bench.Table1() })},
		{"fig1", seqTable(func() bench.Table { _, t := bench.Fig1(cfg); return t })},
		{"fig2", seqTable(func() bench.Table {
			series, t := bench.Fig2(cfg)
			for _, s := range series {
				writeSeries(*out, fmt.Sprintf("fig2_%s.csv", s.Workload), s.Points, s.FastBytes)
			}
			return t
		})},
		{"fig3", seqTable(func() bench.Table {
			data, t := bench.Fig3(cfg)
			for wname, samples := range data {
				var b strings.Builder
				b.WriteString("access_count,utilization\n")
				for _, s := range samples {
					fmt.Fprintf(&b, "%d,%d\n", s.AccessCount, s.Utilization)
				}
				mustWrite(filepath.Join(*out, fmt.Sprintf("fig3_%s.csv", wname)), b.String())
			}
			return t
		})},
		{"table2", seqTable(func() bench.Table { return bench.Table2(cfg) })},
		{"table3", seqTable(func() bench.Table { _, t := bench.Table3(cfg); return t })},
		{"fig5", func() (bench.Table, error) {
			m, t, err := runner.Fig5(ctx, cfg, nil, nil, nil)
			if err != nil {
				return bench.Table{}, err
			}
			mustWrite(filepath.Join(*out, "fig5.plot.txt"), fig5Plot(m))
			writeCounters(*out, "fig5", m)
			return t, nil
		}},
		counted("fig6", func() (*bench.Matrix, bench.Table, error) { return runner.Fig6(ctx, cfg, nil) }),
		counted("fig7", func() (*bench.Matrix, bench.Table, error) { return runner.Fig7(ctx, cfg) }),
		counted("fig8", func() (*bench.Matrix, bench.Table, error) { return runner.Fig8(ctx, cfg) }),
		{"fig9", seqTable(func() bench.Table {
			series, t := bench.Fig9(cfg)
			var plots strings.Builder
			for _, s := range series {
				name := fmt.Sprintf("fig9_%s_%s.csv", s.Workload, strings.ReplaceAll(s.Ratio, ":", "to"))
				writeSeries(*out, name, s.Points, s.FastBytes)
				plots.WriteString(hotSetPlot(fmt.Sprintf("%s %s: identified hot set vs fast tier (MB)", s.Workload, s.Ratio), s.Points, s.FastBytes))
				plots.WriteByte('\n')
			}
			mustWrite(filepath.Join(*out, "fig9.plot.txt"), plots.String())
			return t
		})},
		{"fig10", func() (bench.Table, error) { _, t, err := runner.Fig10(ctx, cfg); return t, err }},
		{"fig11", seqTable(func() bench.Table {
			series, t := bench.Fig11(cfg)
			var plots strings.Builder
			byWorkload := map[string][]render.Series{}
			var order []string
			for _, s := range series {
				name := fmt.Sprintf("fig11_%s_%s.csv", s.Workload, s.Policy)
				writeSeries(*out, name, s.Points, 0)
				var xs, ys []float64
				for _, p := range s.Points {
					xs = append(xs, float64(p.TimeNS)/1e6)
					ys = append(ys, p.ThroughputWin/1e6)
				}
				if _, ok := byWorkload[s.Workload]; !ok {
					order = append(order, s.Workload)
				}
				byWorkload[s.Workload] = append(byWorkload[s.Workload], render.Series{Name: s.Policy, X: xs, Y: ys})
			}
			for _, w := range order {
				plots.WriteString(render.LineChart(
					fmt.Sprintf("%s (1:8): throughput over time (M accesses/s vs ms)", w),
					byWorkload[w], 72, 14))
				plots.WriteByte('\n')
			}
			mustWrite(filepath.Join(*out, "fig11.plot.txt"), plots.String())
			return t
		})},
		{"fig12", seqTable(func() bench.Table { _, t := bench.Fig12(cfg); return t })},
		{"fig13", func() (bench.Table, error) { _, t, err := runner.Fig13(ctx, cfg); return t, err }},
		counted("fig14", func() (*bench.Matrix, bench.Table, error) { return runner.Fig14(ctx, cfg) }),
		{"overhead", seqTable(func() bench.Table { _, t := bench.Overhead(cfg); return t })},
		counted("scenarios", func() (*bench.Matrix, bench.Table, error) {
			// Additive: declarative scenario specs (-scenarios) through
			// the Figure 5 policy/ratio matrix. Never selected unless the
			// flag names at least one spec file, so the paper figures are
			// byte-identical with or without it.
			var scs []*scenario.Runner
			for _, f := range strings.Split(*scens, ",") {
				if f = strings.TrimSpace(f); f == "" {
					continue
				}
				spec, err := scenario.DecodeFile(f)
				if err != nil {
					return nil, bench.Table{}, err
				}
				sc, err := scenario.Compile(spec, scenario.Options{Dir: filepath.Dir(f)})
				if err != nil {
					return nil, bench.Table{}, err
				}
				scs = append(scs, sc)
			}
			m, t, err := runner.RunScenarioMatrix(ctx, cfg, scs, bench.MainRatios, bench.Policies)
			t.Title = fmt.Sprintf("scenarios: normalized performance (vs all-%s, seed %d, %d accesses/cell)",
				cfg.CapKind, cfg.Seed, cfg.Accesses)
			return m, t, err
		}),
		// The tenant-count x skew x churn fairness matrix
		// (EXPERIMENTS.md "Tenant sweep"): every cell normalised to the
		// same policy's single-tenant run.
		counted("tenantsweep", func() (*bench.Matrix, bench.Table, error) {
			return runner.TenantSweep(ctx, cfg, bench.Ratio1to8, nil, nil)
		}),
		// The tier-depth x admission x fault-rate matrix (EXPERIMENTS.md
		// "Depth sweep"): every cell runs on the hierarchy
		// bench.TopologyForDepth derives for its depth with the
		// background mover on, normalised to the same policy's (first
		// depth, first admission, fault-free) reference cell.
		counted("depthsweep", func() (*bench.Matrix, bench.Table, error) {
			dcfg := cfg
			dcfg.Mover = tier.MoverConfig{BytesPerWindow: 8 << 20}
			return runner.DepthSweep(ctx, dcfg, "silo", bench.Ratio1to8, nil, nil, nil, nil)
		}),
		// The fault-rate x policy degradation matrix (EXPERIMENTS.md
		// "Fault sweep"): every cell normalised to the same policy's
		// fault-free run.
		counted("faultsweep", func() (*bench.Matrix, bench.Table, error) {
			return runner.FaultSweep(ctx, cfg, "silo", bench.Ratio1to8, nil, nil)
		}),
	}

	var summary strings.Builder
	for _, j := range jobs {
		if !sel(j.name) {
			continue
		}
		if j.name == "scenarios" && *scens == "" {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		start := time.Now()
		t, err := j.run()
		if errors.Is(err, context.Canceled) {
			var ce *bench.Cancelled
			if errors.As(err, &ce) {
				fmt.Fprintf(os.Stderr, "\n%s interrupted after %d/%d cells\n", j.name, ce.Done, ce.Total)
			} else {
				fmt.Fprintf(os.Stderr, "\n%s interrupted\n", j.name)
			}
			break
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-9s done in %v\n", j.name, time.Since(start).Round(time.Millisecond))
		mustWrite(filepath.Join(*out, j.name+".txt"), t.String())
		mustWrite(filepath.Join(*out, j.name+".csv"), t.CSV())
		summary.WriteString(t.String())
		summary.WriteByte('\n')
	}
	mustWrite(filepath.Join(*out, "summary.txt"), summary.String())
	fmt.Printf("results written to %s/\n", *out)
	if ctx.Err() != nil {
		os.Exit(130) // interrupted: partial results on disk
	}
}

// progressLine redraws one stderr status line per finished cell:
// cells done / total plus the cumulative virtual time simulated.
func progressLine(p bench.Progress) {
	fmt.Fprintf(os.Stderr, "\r\033[K  %d/%d cells  %.2fs virtual  %s", p.Done, p.Total, float64(p.VirtualNS)/1e9, p.Cell)
	if p.Done == p.Total {
		fmt.Fprint(os.Stderr, "\r\033[K")
	}
}

// fig5Plot renders the headline comparison as grouped text bars.
func fig5Plot(m *bench.Matrix) string {
	var groups []render.BarGroup
	seen := map[string]bool{}
	for _, c := range m.Cells {
		key := c.Workload + " " + c.Ratio
		if seen[key] {
			continue
		}
		seen[key] = true
		g := render.BarGroup{Label: key}
		for _, p := range bench.Policies {
			if v, ok := m.Get(c.Workload, c.Ratio, p); ok {
				g.Bars = append(g.Bars, render.Bar{Name: p, Value: v})
			}
		}
		groups = append(groups, g)
	}
	return render.BarChart("Figure 5: normalized performance (vs all-NVM)", groups, 56)
}

// hotSetPlot draws the identified hot set against the fast-tier line.
func hotSetPlot(title string, pts []sim.SeriesPoint, fastBytes uint64) string {
	var xs, hot, fast []float64
	for _, p := range pts {
		xs = append(xs, float64(p.TimeNS)/1e6)
		hot = append(hot, float64(p.HotBytes)/(1<<20))
		fast = append(fast, float64(fastBytes)/(1<<20))
	}
	return render.LineChart(title, []render.Series{
		{Name: "hot", X: xs, Y: hot},
		{Name: "fast tier", X: xs, Y: fast},
	}, 72, 12)
}

func writeSeries(dir, name string, pts []sim.SeriesPoint, fastBytes uint64) {
	var b strings.Builder
	b.WriteString("time_ms,hot_mb,warm_mb,cold_mb,rss_mb,fast_used_mb,fast_hit,tput_Maccess_s,fast_size_mb\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%.3f,%.2f,%.2f,%.2f,%.2f,%.2f,%.4f,%.3f,%.2f\n",
			float64(p.TimeNS)/1e6,
			float64(p.HotBytes)/(1<<20), float64(p.WarmBytes)/(1<<20), float64(p.ColdBytes)/(1<<20),
			float64(p.RSSBytes)/(1<<20), float64(p.FastUsed)/(1<<20),
			p.FastHitWin, p.ThroughputWin/1e6, float64(fastBytes)/(1<<20))
	}
	mustWrite(filepath.Join(dir, name), b.String())
}

// writeCounters dumps every cell's policy counter snapshot next to the
// figure output (additive observability: never an input to the figure).
func writeCounters(dir, fig string, m *bench.Matrix) {
	mustWrite(filepath.Join(dir, fig+".counters.csv"), m.CountersCSV())
}

func mustWrite(path, content string) {
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperfigs:", err)
	os.Exit(1)
}
