package bench

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"memtis/internal/obs"
	"memtis/internal/scenario"
)

// readTraces loads every event trace in dir keyed by file name.
func readTraces(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestEventTraceGolden: a fixed-seed MEMTIS cell must produce
// byte-identical JSONL event traces across repeated runs and across
// runner worker counts — the trace is part of the determinism contract,
// diffable like any other output.
func TestEventTraceGolden(t *testing.T) {
	cfg := DefaultConfig()
	// Long enough for at least one threshold adaptation: promotions are
	// sample-driven, so a run that ends before the first Algorithm-1
	// adaptation legitimately produces none (demand allocation fills the
	// fast tier with pages that register as hot). At 300k accesses the
	// cell promotes a few hundred pages — a robust target for the
	// all-kinds-present assertion below.
	cfg.Accesses = 300_000
	ws := []string{"silo"}
	rs := []Ratio{Ratio1to8}
	ps := []string{"memtis"}

	runInto := func(r *Runner) map[string][]byte {
		c := cfg
		c.EventDir = t.TempDir()
		if _, _, err := r.RunMatrix(context.Background(), c, ws, rs, ps); err != nil {
			t.Fatal(err)
		}
		return readTraces(t, c.EventDir)
	}
	seq1 := runInto(Sequential())
	seq2 := runInto(Sequential())
	par := runInto(Parallel(8))

	// One trace per cell: the memtis cell plus the baseline.
	if len(seq1) != 2 {
		t.Fatalf("trace files = %v, want 2", len(seq1))
	}
	for name, data := range seq1 {
		if !bytes.Equal(data, seq2[name]) {
			t.Fatalf("%s differs between two sequential runs", name)
		}
		if !bytes.Equal(data, par[name]) {
			t.Fatalf("%s differs between sequential and 8-worker runs", name)
		}
	}

	// The MEMTIS cell trace must be non-trivial and decode cleanly, with
	// virtual-time stamps non-decreasing (events are emitted as the
	// machine clock advances).
	data, ok := seq1["silo_1to8_memtis.events.jsonl"]
	if !ok {
		t.Fatalf("memtis cell trace missing; files: %v", keys(seq1))
	}
	evs, err := obs.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("memtis trace is empty")
	}
	counts := map[obs.Kind]int{}
	var last uint64
	for i, e := range evs {
		if e.TimeNS < last {
			t.Fatalf("event %d: time %d < %d", i, e.TimeNS, last)
		}
		last = e.TimeNS
		counts[e.Kind]++
	}
	// A tiered MEMTIS run at 1:8 must at least fault and migrate.
	for _, k := range []obs.Kind{obs.EvDemandFault, obs.EvPromotion, obs.EvDemotion} {
		if counts[k] == 0 {
			t.Errorf("no %s events in memtis trace (kinds: %v)", k, counts)
		}
	}
}

func keys(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSingleRunTrace: Config.Trace reaches the machine on the
// single-run entry points.
func TestSingleRunTrace(t *testing.T) {
	ring := obs.NewRing(0)
	cfg := DefaultConfig()
	cfg.Accesses = 100_000
	cfg.Trace = obs.NewTracer(ring)
	res := RunOne("silo", "memtis", Ratio1to8, cfg)
	if res.Accesses == 0 {
		t.Fatal("run did not execute")
	}
	if ring.Len() == 0 {
		t.Fatal("no events reached the sink")
	}
	if ring.CountByKind()[obs.EvDemandFault] == 0 {
		t.Fatal("no demand-fault events recorded")
	}
}

// TestMatrixIgnoresSharedTracer: no Runner fan-out may hand a
// caller-supplied tracer to its cells (parallel cells would interleave
// one stream); per-cell traces go through EventDir instead.
func TestMatrixIgnoresSharedTracer(t *testing.T) {
	ctx := context.Background()
	one := []string{"memtis"}
	r1to8 := []Ratio{Ratio1to8}
	sc := scenario.MustCompile(scenario.Generate(5), scenario.Options{})
	for _, fan := range []struct {
		name string
		run  func(*Runner, Config) error
	}{
		{"RunMatrix", func(r *Runner, c Config) error {
			_, _, err := r.RunMatrix(ctx, c, []string{"silo"}, r1to8, one)
			return err
		}},
		{"RunScenarioMatrix", func(r *Runner, c Config) error {
			_, _, err := r.RunScenarioMatrix(ctx, c, []*scenario.Runner{sc}, r1to8, one)
			return err
		}},
		{"FaultSweep", func(r *Runner, c Config) error {
			_, _, err := r.FaultSweep(ctx, c, "silo", Ratio1to8, one, []uint32{0, 10_000})
			return err
		}},
		{"DepthSweep", func(r *Runner, c Config) error {
			_, _, err := r.DepthSweep(ctx, c, "silo", Ratio1to8, one, []int{2, 3}, []string{"always"}, []uint32{0})
			return err
		}},
		{"TenantSweep", func(r *Runner, c Config) error {
			_, _, err := r.TenantSweep(ctx, c, Ratio1to8, one, []TenantPoint{{Tenants: 1, Skew: "flat"}, {Tenants: 2, Skew: "flat"}})
			return err
		}},
		{"Fig5", func(r *Runner, c Config) error {
			_, _, err := r.Fig5(ctx, c, []string{"btree"}, r1to8, one)
			return err
		}},
		{"Fig6", func(r *Runner, c Config) error {
			_, _, err := r.Fig6(ctx, c, one)
			return err
		}},
		{"Fig7", func(r *Runner, c Config) error {
			_, _, err := r.Fig7(ctx, c)
			return err
		}},
		{"Fig8", func(r *Runner, c Config) error {
			_, _, err := r.Fig8(ctx, c)
			return err
		}},
		{"Fig10", func(r *Runner, c Config) error {
			_, _, err := r.Fig10(ctx, c)
			return err
		}},
		{"Fig13", func(r *Runner, c Config) error {
			_, _, err := r.Fig13(ctx, c)
			return err
		}},
		{"Fig14", func(r *Runner, c Config) error {
			_, _, err := r.Fig14(ctx, c)
			return err
		}},
	} {
		t.Run(fan.name, func(t *testing.T) {
			ring := obs.NewRing(0)
			cfg := DefaultConfig()
			cfg.Accesses = 5_000
			cfg.Trace = obs.NewTracer(ring)
			if err := fan.run(Parallel(2), cfg); err != nil {
				t.Fatal(err)
			}
			if ring.Len() != 0 {
				t.Fatalf("cells emitted %d events into the shared tracer", ring.Len())
			}
		})
	}
}
