package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

// testSizes keeps every workload to a fraction of a second per round.
var testSizes = sizes{
	fig5Accesses:   20_000,
	replayAccesses: 50_000,
	tenantAccesses: 50_000,
	tenantScale:    1.0 / 64,
}

// digests runs one round and returns its cells' digests, failing the
// test on any cell that panicked or failed its outside checks.
func digests(t *testing.T, p *prepared, workers int, traced bool) []string {
	t.Helper()
	cells, err := p.round(workers, traced)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(p.labels) {
		t.Fatalf("%d cells for %d labels", len(cells), len(p.labels))
	}
	ds := make([]string, len(cells))
	for i, c := range cells {
		if c.label != p.labels[i] {
			t.Fatalf("cell %d is %q, label %q", i, c.label, p.labels[i])
		}
		if c.err == nil {
			c.err = p.check(c)
		}
		if c.err != nil {
			t.Fatalf("cell %s: %v", c.label, c.err)
		}
		ds[i] = c.digest()
	}
	return ds
}

// TestDigestsStable checks that every workload's cells digest the same
// at one worker and at nproc workers, traced and untraced, and across
// two set-ups.
func TestDigestsStable(t *testing.T) {
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			p, err := def.prepare(3, testSizes)
			if err != nil {
				t.Fatal(err)
			}
			want := digests(t, p, 1, false)
			p2, err := def.prepare(3, testSizes)
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range []struct {
				name    string
				p       *prepared
				workers int
				traced  bool
			}{
				{"nproc", p, defaultWorkers(), false},
				{"traced", p, defaultWorkers(), true},
				{"second set-up", p2, defaultWorkers(), false},
			} {
				got := digests(t, run.p, run.workers, run.traced)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s: cell %s digest %s, one worker gave %s", run.name, p.labels[i], got[i], want[i])
					}
				}
			}
			other, err := def.prepare(4, testSizes)
			if err != nil {
				t.Fatal(err)
			}
			// A cell can end inside its model's seed-independent
			// initialisation at this size, but not every cell does.
			same := 0
			for i, d := range digests(t, other, defaultWorkers(), false) {
				if d == want[i] {
					same++
				}
			}
			if same == len(want) {
				t.Errorf("seeds 3 and 4 gave all %d cells the same digests", same)
			}
		})
	}
}

// TestRecordedDigestsMatch checks the shipped digests of seed 0 against
// a fresh untraced round at the default size.
func TestRecordedDigestsMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at its full size")
	}
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			p, err := def.prepare(0, defaultSizes)
			if err != nil {
				t.Fatal(err)
			}
			ref, ok, err := recordedDigests(def.name, p.cellBudget, p.labels, 0)
			if err != nil || !ok {
				t.Fatalf("no recorded digests for seed 0 (err %v)", err)
			}
			got := digests(t, p, defaultWorkers(), false)
			for i := range ref {
				if got[i] != ref[i] {
					t.Errorf("cell %s digest %s, recorded %s", p.labels[i], got[i], ref[i])
				}
			}
		})
	}
}

// benchmarkFile is the part of BENCHMARK.json the test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricNames runs every workload untraced and traced at the test
// size and checks that each emits exactly the metrics BENCHMARK.json
// names, with their units, and no failed operation.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadDefs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloadDefs))
	}
	for _, w := range bf.Workloads {
		def, ok := workloadByName(w.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range bf.EndToEnd {
				want[m.Name] = m.Unit
			}
			if traced {
				want = map[string]string{}
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			b := &benchRun{def: def, sz: testSizes, seed: 5, workers: defaultWorkers(), budget: time.Second, log: io.Discard}
			run := b.endToEnd
			if traced {
				run = b.traced
			}
			rep, err := run()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			var extra []string
			for name, m := range rep.Metrics {
				unit, ok := want[name]
				if !ok {
					extra = append(extra, name)
				} else if unit != m.Unit {
					t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", w.Name, name, m.Unit, unit)
				}
				delete(want, name)
			}
			sort.Strings(extra)
			if len(extra) > 0 {
				t.Errorf("%s traced=%v: metrics missing from BENCHMARK.json: %v", w.Name, traced, extra)
			}
			if len(want) > 0 {
				t.Errorf("%s traced=%v: BENCHMARK.json metrics not emitted: %v", w.Name, traced, sortedKeys(want))
			}
		}
	}
}
