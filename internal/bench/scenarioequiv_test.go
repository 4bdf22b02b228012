package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memtis/internal/obs"
	"memtis/internal/scenario"
	"memtis/internal/sim"
	"memtis/internal/trace"
)

// The scenario equivalence suite pins compiled scenarios to recorded
// results: the golden hashes in testdata/scenario_equiv.json cover the
// example specs, generated specs over sixteen seeds, and hand-built
// specs that reach every phase kind — each Table 2 workload, trace
// replay, region mixes, zero-budget source phases (which still
// reserve), churn-only phases after the budget is spent (frees still
// advance virtual time) and a multi-tenant spec. Any rewrite of how a
// scenario drives the machine must reproduce them bit for bit.
//
// Regenerate with SCENARIO_EQUIV_REWRITE=1 only when a change is
// *meant* to alter simulated scenario behaviour.

// scenarioEquivCell is one golden entry.
type scenarioEquivCell struct {
	TraceSHA    string `json:"trace_sha"`
	CountersSHA string `json:"counters_sha"`
	TenantsSHA  string `json:"tenants_sha"`
	Accesses    uint64 `json:"accesses"`
	AppNS       uint64 `json:"app_ns"`
	Migrations  uint64 `json:"migrations_4k"`
	RSSFinal    uint64 `json:"rss_final"`
}

// scenarioEquivBudget is every cell's access budget.
const scenarioEquivBudget = 100_000

// runScenarioEquivCell compiles spec (trace paths resolve against dir)
// and runs it under memtis at 1:8 with an event tracer attached.
func runScenarioEquivCell(spec scenario.Spec, dir string) scenarioEquivCell {
	sc, err := scenario.Compile(spec, scenario.Options{Dir: dir})
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	cfg := DefaultConfig()
	cfg.Trace = obs.NewTracer(sink)
	m := sim.NewMachine(ScenarioMachine(sc, Ratio1to8, cfg), NewPolicy("memtis"))
	sc.Run(m, scenarioEquivBudget)
	res := m.Finish(sc.Name())
	if err := sink.Flush(); err != nil {
		panic(err)
	}
	ts := sha256.Sum256(buf.Bytes())
	var cb bytes.Buffer
	for _, c := range res.Counters {
		fmt.Fprintf(&cb, "%s=%d\n", c.Name, c.Value)
	}
	cs := sha256.Sum256(cb.Bytes())
	var rb bytes.Buffer
	for _, row := range res.Tenants {
		fmt.Fprintf(&rb, "%d %s %d %d %d\n", row.ID, row.Name, row.Accesses, row.ResidentBytes, row.FastBytes)
	}
	rs := sha256.Sum256(rb.Bytes())
	return scenarioEquivCell{
		TraceSHA:    hex.EncodeToString(ts[:]),
		CountersSHA: hex.EncodeToString(cs[:]),
		TenantsSHA:  hex.EncodeToString(rs[:]),
		Accesses:    res.Accesses,
		AppNS:       res.AppNS,
		Migrations:  res.VM.Migrations4K,
		RSSFinal:    res.RSSFinal,
	}
}

// handScenarios are the hand-built specs: every phase kind, in the
// positions where a stream rewrite could reorder machine mutations.
// They reference the trace file "equiv.trace".
func handScenarios() []scenario.Spec {
	wl := func(name string, gb float64) scenario.Phase {
		return scenario.Phase{Workload: name, RSSGB: gb}
	}
	grow := func(name string, bytes uint64) []scenario.Region {
		return []scenario.Region{{Name: name, Bytes: bytes}}
	}
	mix := func(regions ...string) []scenario.MixEntry {
		var out []scenario.MixEntry
		for i, r := range regions {
			out = append(out, scenario.MixEntry{Region: r, Weight: 1 + i, Dist: "zipf", S: 1.1, Scramble: true, WritePercent: 20})
		}
		return append(out, scenario.MixEntry{Region: regions[0], Dist: "seq"})
	}
	const tiny = 1e-6 // a source phase weight that truncates to a zero budget
	return []scenario.Spec{
		{
			// Every Table 2 model, with churn between them: a
			// churn-only phase right after 603.bwaves (whose stream
			// may stop with a buffer free pending) and a free after
			// graph500's count-relative generation phase.
			Name: "hand-table2",
			Phases: []scenario.Phase{
				{Grow: grow("heap", 2<<20), Mix: mix("heap")},
				wl("graph500", 0.5),
				wl("603.bwaves", 0.5),
				{Free: []string{"heap"}, Grow: []scenario.Region{{Name: "heap", Bytes: 1 << 20, SkipInit: true}}},
				wl("btree", 0.5),
				wl("silo", 0.25),
				wl("pagerank", 0.25),
				{Free: []string{"heap"}},
				wl("xsbench", 0.25),
				wl("liblinear", 0.25),
				wl("654.roms", 0.25),
			},
		},
		{
			// Trace and mix sources, zero-budget workload and trace
			// phases (reservations only), and trailing churn-only
			// phases that run after the budget is spent.
			Name: "hand-sources",
			Phases: []scenario.Phase{
				{Weight: 2, Grow: grow("a", 4<<20), Mix: mix("a")},
				{Trace: "equiv.trace"},
				{Weight: tiny, Workload: "xsbench", RSSGB: 0.25},
				{Weight: tiny, Trace: "equiv.trace"},
				{Grow: grow("b", 2<<20), Mix: mix("b", "a")},
				{Free: []string{"a"}},
				{Free: []string{"b"}, Grow: grow("c", 1<<20)},
			},
		},
		{
			// Init touches that outrun the whole budget: every later
			// phase — a mix, a workload's reservations, a free — runs
			// with the budget already spent.
			Name: "hand-overrun",
			Phases: []scenario.Phase{
				{Grow: grow("big", 512<<20), Mix: mix("big")},
				wl("silo", 0.25),
				{Free: []string{"big"}},
			},
		},
		{
			Name: "hand-tenants",
			Tenants: []scenario.TenantSpec{
				{Name: "a", Weight: 2, FloorBytes: 2 << 20, Phases: []scenario.Phase{
					wl("graph500", 0.5),
					{Grow: grow("x", 1<<20), Mix: mix("x")},
				}},
				{Name: "b", SpawnFrac: 0.1, ExitFrac: 0.7, Phases: []scenario.Phase{
					wl("603.bwaves", 0.5),
					{Trace: "equiv.trace"},
				}},
				{Name: "c", GrowBytes: 1 << 20, GrowFrac: 0.2, ShrinkFrac: 0.5, Phases: []scenario.Phase{
					{Grow: grow("y", 2<<20), Mix: mix("y")},
					wl("btree", 0.25),
					{Free: []string{"y"}},
				}},
			},
		},
	}
}

// scenarioEquivCells enumerates the golden cells: examples/scenarios,
// scenario.Generate seeds 0-15 and the hand-built specs. dir holds the
// hand-built specs' trace file.
func scenarioEquivCells(t *testing.T, dir string) map[string]func() scenarioEquivCell {
	cells := map[string]func() scenarioEquivCell{}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example scenarios (%v)", err)
	}
	for _, p := range paths {
		spec, err := scenario.DecodeFile(p)
		if err != nil {
			t.Fatal(err)
		}
		name := "example_" + strings.TrimSuffix(filepath.Base(p), ".json")
		cells[name] = func() scenarioEquivCell { return runScenarioEquivCell(spec, "") }
	}
	for seed := uint64(0); seed < 16; seed++ {
		spec := scenario.Generate(seed)
		cells[fmt.Sprintf("gen_%02d", seed)] = func() scenarioEquivCell { return runScenarioEquivCell(spec, "") }
	}
	for _, spec := range handScenarios() {
		spec := spec
		cells[spec.Name] = func() scenarioEquivCell { return runScenarioEquivCell(spec, dir) }
	}
	return cells
}

// TestScenarioEquivalence drives the scenario cells and compares
// against the recorded goldens.
func TestScenarioEquivalence(t *testing.T) {
	dir := t.TempDir()
	if err := trace.SaveFile(filepath.Join(dir, "equiv.trace"), equivRecords(5000, 900)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "scenario_equiv.json")
	cells := scenarioEquivCells(t, dir)
	if os.Getenv("SCENARIO_EQUIV_REWRITE") != "" {
		out := map[string]scenarioEquivCell{}
		for name, run := range cells {
			out[name] = run()
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cells", path, len(out))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (%v); regenerate with SCENARIO_EQUIV_REWRITE=1", err)
	}
	want := map[string]scenarioEquivCell{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cells) {
		t.Fatalf("golden has %d cells, suite has %d", len(want), len(cells))
	}
	for name, run := range cells {
		got := run()
		w, ok := want[name]
		if !ok {
			t.Fatalf("cell %s missing from golden", name)
		}
		if got != w {
			t.Errorf("cell %s diverged from the recorded golden:\n got %+v\nwant %+v", name, got, w)
		}
	}
}
