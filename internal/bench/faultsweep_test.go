package bench

import (
	"bytes"
	"context"
	"testing"

	"memtis/internal/obs"
)

// TestFaultSweepTraceDeterminism: with faults enabled at a fixed seed,
// the sweep's JSONL traces must be byte-identical across worker counts
// — injected fault histories are part of the determinism contract
// (DESIGN.md §6), not a source of run-to-run noise. The sweep cell
// must also actually abort migrations, or the sweep measures nothing.
func TestFaultSweepTraceDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Accesses = 150_000
	rates := []uint32{0, 50_000}
	pols := []string{"memtis"}

	runInto := func(r *Runner) map[string][]byte {
		c := cfg
		c.EventDir = t.TempDir()
		if _, _, err := r.FaultSweep(context.Background(), c, "silo", Ratio1to8, pols, rates); err != nil {
			t.Fatal(err)
		}
		return readTraces(t, c.EventDir)
	}
	seq := runInto(Sequential())
	par := runInto(Parallel(8))

	if len(seq) != len(rates)*len(pols) {
		t.Fatalf("trace files = %d, want %d", len(seq), len(rates)*len(pols))
	}
	for name, data := range seq {
		if !bytes.Equal(data, par[name]) {
			t.Fatalf("%s differs between sequential and 8-worker runs", name)
		}
	}

	check := func(name string) map[obs.Kind]int {
		data, ok := seq[name]
		if !ok {
			t.Fatalf("%s missing; files: %v", name, keys(seq))
		}
		evs, err := obs.ReadAll(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		counts := map[obs.Kind]int{}
		for _, e := range evs {
			counts[e.Kind]++
		}
		return counts
	}
	faulted := check("silo_1to8+50000ppm_memtis.events.jsonl")
	if faulted[obs.EvMigrateAbort] == 0 {
		t.Error("no migrate_abort events at a 5% copy-fault rate")
	}
	if faulted[obs.EvMigrateRetry] == 0 {
		t.Error("no migrate_retry events at a 5% copy-fault rate")
	}
	clean := check("silo_1to8+0ppm_memtis.events.jsonl")
	if n := clean[obs.EvMigrateAbort] + clean[obs.EvMigrateRetry]; n != 0 {
		t.Errorf("fault-free reference cell emitted %d fault events", n)
	}
}

// TestFaultSweepNormalisation: the rate-0 row is each policy's own
// reference, so it must normalise to exactly 1.
func TestFaultSweepNormalisation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Accesses = 60_000
	m, _, err := Parallel(4).FaultSweep(context.Background(), cfg, "silo", Ratio1to8,
		[]string{"memtis", "static"}, []uint32{0, 50_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"memtis", "static"} {
		v, ok := m.Get("silo", faultCoord(Ratio1to8, 0), p)
		if !ok || v != 1 {
			t.Errorf("%s: rate-0 normalised value = %v (ok=%v), want exactly 1", p, v, ok)
		}
		if v, ok := m.Get("silo", faultCoord(Ratio1to8, 50_000), p); !ok || v <= 0 {
			t.Errorf("%s: faulted cell value = %v (ok=%v)", p, v, ok)
		}
	}
}
