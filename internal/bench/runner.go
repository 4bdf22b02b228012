// The parallel experiment runner: every experiment that fans out is a
// list of cells run by one sweep on a bounded worker pool, one
// independent simulated machine per cell, with results assembled in
// deterministic plot order regardless of completion order.
//
// Determinism across worker counts rests on two invariants:
//
//  1. Every cell derives its own RNG seed from (Config.Seed, workload,
//     coordinate, policy) via CellSeed — no cell's stream depends on
//     how many cells ran before it, so scheduling cannot perturb
//     results.
//  2. A cell runs on a private Machine, Policy and Workload instance;
//     no package in the simulator holds mutable global state (see
//     TestMachinesAreIndependent in internal/sim).
//
// The determinism regression tests in runner_test.go assert that an
// 8-worker run is cell-for-cell identical to a sequential one.
package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"memtis/internal/obs"
	"memtis/internal/sim"
)

// CellSeed derives an independent per-cell RNG seed from the base seed
// and the cell's matrix coordinates using FNV-1a hashes of the
// coordinates pushed through a SplitMix64 finalizer. Cells of the same
// matrix get statistically independent streams; the same coordinates
// and base seed always yield the same stream.
func CellSeed(base int64, workload, ratio, policy string) int64 {
	h := splitmix64(uint64(base) ^ fnv1a(workload))
	h = splitmix64(h ^ fnv1a(ratio))
	h = splitmix64(h ^ fnv1a(policy))
	return int64(h)
}

// splitmix64 is the SplitMix64 finalizer (Steele et al., "Fast
// splittable pseudorandom number generators"): a bijective avalanche
// mix, so distinct inputs cannot collide by construction.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv1a hashes a coordinate string (FNV-1a 64-bit).
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// CellConfig returns cfg with Seed replaced by the cell-derived seed.
// Matrix runners use it for every cell; single-run entry points
// (RunOne with a caller-chosen seed) are unaffected.
func CellConfig(cfg Config, workload, ratio, policy string) Config {
	cfg.Seed = CellSeed(cfg.Seed, workload, ratio, policy)
	return cfg
}

// Cancelled reports a fan-out stopped by context cancellation before
// every cell ran. It wraps the context's error, so
// errors.Is(err, context.Canceled) keeps matching; callers that want
// the completed-cell count unwrap it with errors.As.
type Cancelled struct {
	Done  int   // cells that finished before the stop
	Total int   // cells the fan-out was asked to run
	Cause error // the context's error (Canceled or DeadlineExceeded)
}

// Error implements error.
func (e *Cancelled) Error() string {
	return fmt.Sprintf("bench: cancelled after %d/%d cells: %v", e.Done, e.Total, e.Cause)
}

// Unwrap exposes the context's error to errors.Is/errors.As.
func (e *Cancelled) Unwrap() error { return e.Cause }

// Progress is one runner progress event, emitted after each cell
// completes.
type Progress struct {
	Done      int    // cells finished so far
	Total     int    // cells in this fan-out
	Cell      string // label of the cell that just finished
	VirtualNS uint64 // cumulative simulated virtual time across cells
}

// Runner executes experiment cells on a bounded worker pool.
//
// Workers <= 0 uses GOMAXPROCS; Workers == 1 is the sequential mode:
// cells run in enumeration order on the calling goroutine (the
// reference for the parallel-equals-sequential tests). The zero value
// is a parallel runner with no progress reporting.
type Runner struct {
	Workers int
	// Progress, when set, observes every cell completion. It is called
	// under the runner's lock: keep it fast and do not call back into
	// the runner.
	Progress func(Progress)
}

// Sequential returns a single-worker runner — the determinism
// reference.
func Sequential() *Runner { return &Runner{Workers: 1} }

// Parallel returns a runner with n workers (n <= 0: GOMAXPROCS).
func Parallel(n int) *Runner { return &Runner{Workers: n} }

// cellTask is one schedulable unit: label for progress reporting, run
// executes the cell (writing into its pre-assigned result slot) and
// returns the virtual nanoseconds it simulated.
type cellTask struct {
	label string
	run   func() uint64
}

// do drains tasks with the runner's worker bound. Each task owns its
// result slot, so workers never share mutable state; only the progress
// counters are locked. On context cancellation, in-flight cells finish
// and the remainder are never started.
func (r *Runner) do(ctx context.Context, tasks []cellTask) error {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	total := len(tasks)
	if workers <= 1 {
		// Sequential fast path on the calling goroutine: natural stacks
		// for panics and no scheduler in the loop.
		var virt uint64
		for i, t := range tasks {
			if err := ctx.Err(); err != nil {
				return &Cancelled{Done: i, Total: total, Cause: err}
			}
			virt += t.run()
			if r.Progress != nil {
				r.Progress(Progress{Done: i + 1, Total: total, Cell: t.label, VirtualNS: virt})
			}
		}
		return nil
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
		virt uint64
	)
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := range tasks {
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				v := tasks[i].run()
				mu.Lock()
				done++
				virt += v
				if r.Progress != nil {
					r.Progress(Progress{Done: done, Total: total, Cell: tasks[i].label, VirtualNS: virt})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// done is stable once every worker has exited; no lock needed.
	if err := ctx.Err(); err != nil {
		return &Cancelled{Done: done, Total: total, Cause: err}
	}
	return nil
}

// cellTrace attaches a per-cell JSONL tracer to ccfg when dir is
// non-empty, returning a flush-and-close func. It always clears
// ccfg.Trace first: matrix cells never share a caller-supplied tracer
// (parallel cells would interleave one stream).
func cellTrace(dir, workload, ratio, polName string, ccfg *Config) (func() error, error) {
	ccfg.Trace = nil
	if dir == "" {
		return func() error { return nil }, nil
	}
	name := fmt.Sprintf("%s_%s_%s.events.jsonl",
		fileSafe(workload), fileSafe(ratio), fileSafe(polName))
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	sink := obs.NewJSONL(f)
	ccfg.Trace = obs.NewTracer(sink)
	return func() error {
		if err := sink.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// fileSafe maps a matrix coordinate onto a file-name fragment: ':' (in
// ratio names) is spelled "to", path separators become '-'.
func fileSafe(s string) string {
	s = strings.ReplaceAll(s, ":", "to")
	return strings.ReplaceAll(s, "/", "-")
}

// sweepCell is one cell of a Runner fan-out. Its coordinates derive
// the cell seed (CellConfig), name its event trace and, unless label
// overrides it, form its progress label; run executes the cell on the
// cell-seeded config. A cell with a nil run is not scheduled: it takes
// the result of the cell it normalises against.
type sweepCell struct {
	workload, coord, policy string
	label                   string
	run                     func(Config) sim.Result
}

// sweep is the one fan-out every Runner experiment goes through. It
// runs the cells on the worker pool in list order, each on a
// cell-seeded config carrying its own event trace under cfg.EventDir
// (never cfg.Trace), and assembles the Matrix in list order: cell i
// valued as its throughput normalised to cell ref(i). A cell with a
// negative ref is a pure reference (a baseline) and is left out.
func (r *Runner) sweep(ctx context.Context, cfg Config, cells []sweepCell, ref func(i int) int) (*Matrix, error) {
	if cfg.EventDir != "" {
		if err := os.MkdirAll(cfg.EventDir, 0o755); err != nil {
			return nil, err
		}
	}
	// First trace-I/O failure across cells; the matrix is invalid when a
	// requested trace could not be written.
	var (
		failMu sync.Mutex
		failed error
	)
	results := make([]sim.Result, len(cells))
	var tasks []cellTask
	for i, c := range cells {
		if c.run == nil {
			continue
		}
		label := c.label
		if label == "" {
			label = c.workload + "/" + c.coord + "/" + c.policy
		}
		tasks = append(tasks, cellTask{label: label, run: func() uint64 {
			ccfg := CellConfig(cfg, c.workload, c.coord, c.policy)
			closeTrace, err := cellTrace(cfg.EventDir, c.workload, c.coord, c.policy, &ccfg)
			if err == nil {
				results[i] = c.run(ccfg)
				err = closeTrace()
			}
			if err != nil {
				failMu.Lock()
				if failed == nil {
					failed = err
				}
				failMu.Unlock()
			}
			return results[i].AppNS
		}})
	}
	if err := r.do(ctx, tasks); err != nil {
		return nil, err
	}
	if failed != nil {
		return nil, fmt.Errorf("bench: writing event traces: %w", failed)
	}
	m := &Matrix{}
	for i, c := range cells {
		j := ref(i)
		if j < 0 {
			continue
		}
		if c.run == nil {
			results[i] = results[j]
		}
		m.Cells = append(m.Cells, Cell{
			Workload: c.workload, Ratio: c.coord, Policy: c.policy,
			Value: Norm(results[i], results[j]), Result: results[i],
		})
	}
	return m, nil
}

// blockRef is the ref of a cell list laid out in blocks of n cells,
// each led by the pure reference the rest of its block normalises to.
func blockRef(n int) func(int) int {
	return func(i int) int {
		if i%n == 0 {
			return -1
		}
		return i - i%n
	}
}

// sweepTable renders a Matrix as a "row label(s) x policy" table:
// row i leads with label(i) and takes the next len(header)-len(label(i))
// cell values in plot order.
func sweepTable(title string, header []string, m *Matrix, rows int, label func(i int) []interface{}) Table {
	t := Table{Title: title, Header: header}
	next := 0
	for i := 0; i < rows; i++ {
		row := label(i)
		for n := len(header) - len(row); n > 0; n-- {
			row = append(row, m.Cells[next].Value)
			next++
		}
		t.AddRow(row...)
	}
	return t
}

// RunMatrix executes the (workload x ratio x policy) matrix plus the
// per-workload all-capacity baselines every figure normalises against,
// and assembles the normalised Matrix in plot order (workloads outer,
// ratios, then policies) regardless of completion order, with its
// (workload, ratio) x policy table and per-ratio geomean rows. Nil
// slices select the Figure 5 defaults.
func (r *Runner) RunMatrix(ctx context.Context, cfg Config, workloads []string, ratios []Ratio, pols []string) (*Matrix, Table, error) {
	if workloads == nil {
		workloads = workloadNames()
	}
	if ratios == nil {
		ratios = MainRatios
	}
	if pols == nil {
		pols = Policies
	}
	return r.normMatrix(ctx, cfg, workloads, ratios, pols,
		func(i int, c Config) sim.Result { return RunBaseline(workloads[i], c) },
		func(i int, p string, rt Ratio, c Config) sim.Result { return RunOne(workloads[i], p, rt, c) })
}

// normMatrix is the Figure 5 shape shared by workloads and scenarios:
// per name, one all-capacity baseline (base) and then every ratio x
// policy cell (run), each normalised to its name's baseline.
func (r *Runner) normMatrix(ctx context.Context, cfg Config, names []string, ratios []Ratio, pols []string,
	base func(i int, cfg Config) sim.Result, run func(i int, p string, rt Ratio, cfg Config) sim.Result) (*Matrix, Table, error) {
	var cells []sweepCell
	for i, name := range names {
		cells = append(cells, sweepCell{workload: name, coord: "baseline", policy: "all-capacity", label: name + "/baseline",
			run: func(c Config) sim.Result { return base(i, c) }})
		for _, rt := range ratios {
			for _, p := range pols {
				cells = append(cells, sweepCell{workload: name, coord: rt.Name, policy: p,
					run: func(c Config) sim.Result { return run(i, p, rt, c) }})
			}
		}
	}
	m, err := r.sweep(ctx, cfg, cells, blockRef(1+len(ratios)*len(pols)))
	if err != nil {
		return nil, Table{}, err
	}
	title := fmt.Sprintf("normalized performance (capacity tier: %s, seed %d, %d accesses/cell)",
		cfg.CapKind, cfg.Seed, cfg.Accesses)
	t := sweepTable(title, append([]string{"workload", "ratio"}, pols...), m, len(names)*len(ratios),
		func(i int) []interface{} { return []interface{}{names[i/len(ratios)], ratios[i%len(ratios)].Name} })
	for ri, rt := range ratios {
		row := []interface{}{"geomean", rt.Name}
		for pi := range pols {
			var vals []float64
			for ni := range names {
				vals = append(vals, m.Cells[(ni*len(ratios)+ri)*len(pols)+pi].Value)
			}
			row = append(row, Geomean(vals))
		}
		t.AddRow(row...)
	}
	return m, t, nil
}
