// Command perfbench is the repository's end-to-end benchmark: the host
// time the simulator takes to run the jobs its users run, with a
// correctness gate on every simulated result.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload fig5-matrix --seed 1 --seconds 36 --trace 0
//
// With --trace 0 the run sets the workload up several times (setup_s is
// the median), then repeats the workload's round — one complete job —
// for --seconds host seconds and reports the median round (wall_s,
// accesses_per_s) and the peak host memory. With --trace 1 it prints
// the per-layer breakdown instead (see layers.go and README.md). The
// last line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": 504, "failed": 0, "metrics": {...}}
//
// One operation is one simulated cell. A cell fails when it panics,
// when an outside check on its result fails, or when its sim.Result
// digest differs from the one recorded in digests/ for the seed (or,
// for a seed without recorded digests, from the digest the same cell
// produced in the run's first round).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "", "workload to run: fig5-matrix, replay-btree or tenants-mix")
	seed := fs.Int64("seed", 1, "input seed; the simulator receives it only through Config.Seed")
	seconds := fs.Int("seconds", 10, "host seconds of the timed phase")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	record := fs.Int("record", 0, "record the digests of seeds 0..N-1 into "+digestDir+" and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloadByName(*wname)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *wname, workloadNames())
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive, --trace 0 or 1")
		return 2
	}
	if *record > 0 {
		if err := recordDigests(def, defaultSizes, *record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	b := &benchRun{
		def: def, sz: defaultSizes, seed: *seed, workers: defaultWorkers(),
		budget: time.Duration(*seconds) * time.Second, log: stderr,
	}
	var (
		rep report
		err error
	)
	if *traced == 1 {
		rep, err = b.traced()
	} else {
		rep, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// defaultWorkers is nproc, capped at two so that the worker count, and
// with it the memory of cells running side by side, does not grow with
// the host.
func defaultWorkers() int { return min(runtime.NumCPU(), 2) }

// benchRun is one invocation: a workload at a seed and a size.
type benchRun struct {
	def     *workloadDef
	sz      sizes
	seed    int64
	workers int
	budget  time.Duration
	log     io.Writer

	ref       []string // digest each cell must reproduce, nil until known
	attempted int
	failed    int
}

// minRounds is the fewest rounds a run times, whatever --seconds says,
// so every median has at least three samples.
const minRounds = 3

// setUp prepares the workload repeatedly and returns the last
// preparation and the median set-up time. Cheap set-ups repeat until
// half a second has passed, expensive ones (trace capture) three times.
// Garbage is collected after an expensive set-up, so that peak host
// memory counts one preparation, not however many the collector left
// behind; cheap ones run back to back, warm, like the rounds.
func (b *benchRun) setUp() (*prepared, float64, error) {
	var (
		p     *prepared
		times []float64
	)
	start := time.Now()
	for len(times) < 3 || (time.Since(start) < 500*time.Millisecond && len(times) < 1001) {
		if n := len(times); n > 0 && times[n-1] > 0.01 {
			p = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		p, err = b.def.prepare(b.seed, b.sz)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", b.def.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return p, median(times), b.loadRef(p)
}

// loadRef looks up the recorded digests for the run's seed and size.
func (b *benchRun) loadRef(p *prepared) error {
	ref, _, err := recordedDigests(b.def.name, p.cellBudget, p.labels, b.seed)
	b.ref = ref
	return err
}

// verify counts the round's cells as attempted and each one that
// panicked, failed an outside check or missed its digest as failed.
func (b *benchRun) verify(p *prepared, cells []cell) {
	if len(cells) != len(p.labels) {
		panic(fmt.Sprintf("perfbench: round returned %d cells for %d labels", len(cells), len(p.labels)))
	}
	if b.ref == nil {
		b.ref = make([]string, len(cells))
		for i, c := range cells {
			if c.err == nil {
				b.ref[i] = c.digest()
			}
		}
		fmt.Fprintf(b.log, "perfbench: no recorded digests for %s seed %d at this size; checking that later rounds reproduce round one\n", b.def.name, b.seed)
	}
	for i, c := range cells {
		b.attempted++
		err := c.err
		if err == nil {
			err = p.check(c)
		}
		if err == nil {
			if d := c.digest(); d != b.ref[i] {
				err = fmt.Errorf("digest %s, want %s", d, b.ref[i])
			}
		}
		if err != nil {
			b.failed++
			fmt.Fprintf(b.log, "perfbench: cell %s failed: %v\n", c.label, err)
		}
	}
}

// endToEnd is the untraced run: every end-to-end metric.
func (b *benchRun) endToEnd() (report, error) {
	p, setupS, err := b.setUp()
	if err != nil {
		return report{}, err
	}
	var walls, rates []float64
	start := time.Now()
	for len(walls) < minRounds || time.Since(start)+time.Duration(median(walls)*float64(time.Second)) <= b.budget {
		// A round starts from a collected heap, so its peak memory and
		// its collector work do not depend on the rounds before it.
		runtime.GC()
		t0 := time.Now()
		cells, err := p.round(b.workers, false)
		wall := time.Since(t0).Seconds()
		if err != nil {
			return report{}, fmt.Errorf("%s: round %d: %w", b.def.name, len(walls), err)
		}
		b.verify(p, cells)
		walls = append(walls, wall)
		rates = append(rates, float64(p.accesses)/wall)
	}
	fmt.Fprintf(b.log, "perfbench: %s seed %d: %d rounds, median round %.3fs\n", b.def.name, b.seed, len(walls), median(walls))
	return b.report(map[string]metric{
		"wall_s":         {median(walls), "s"},
		"accesses_per_s": {median(rates), "1/s"},
		"setup_s":        {setupS, "s"},
		"host_mem_mb":    {peakRSSMB(), "MB"},
	}), nil
}

func (b *benchRun) report(m map[string]metric) report {
	return report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-th percentile of xs (q in (0,100]).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(q/100*float64(len(s))+0.999999) - 1
	return s[max(0, min(k, len(s)-1))]
}
