package bench

import (
	"context"
	"encoding/json"
	"testing"

	"memtis/internal/scenario"
)

// TestScenarioSmokeSweep is the deterministic scenario sweep make
// check runs: the listed hunt seeds must pass every conformance
// invariant, and running each twice must produce byte-identical
// results — the fixed-seed reproducibility the nightly fuzz job's
// failure messages depend on. Seeds 0..9 match the fuzz corpus;
// 10/13/14/17 fill in HuntShape combinations (depth 2-4 with and
// without benefit admission and the background mover) the first ten
// under-cover.
func TestScenarioSmokeSweep(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 14, 17} {
		seed := seed
		t.Run(scenario.Generate(seed).Name, func(t *testing.T) {
			t.Parallel()
			first, err := HuntScenario(seed, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range first.Violations {
				t.Error(v)
			}
			second, err := HuntScenario(seed, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			a, err := json.Marshal(first)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(second)
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Fatalf("hunt seed %d is not deterministic:\n%s\nvs\n%s", seed, a, b)
			}
		})
	}
}

// TestHuntParamsDeterministic pins that the (policy, ratio) pairing is
// a pure function of the seed and stays inside the registries.
func TestHuntParamsDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		p1, r1 := HuntParams(seed)
		p2, r2 := HuntParams(seed)
		if p1 != p2 || r1 != r2 {
			t.Fatalf("seed %d: HuntParams not deterministic", seed)
		}
		if !KnownPolicy(p1) {
			t.Fatalf("seed %d: unknown policy %q", seed, p1)
		}
	}
}

// TestHuntShapePinned pins the fuzz seed -> machine-shape map for
// seeds 0..31: a CI failure reproduces from its seed alone only while
// HuntShape keeps returning the shape the failing run drew.
func TestHuntShapePinned(t *testing.T) {
	want := []struct {
		depth            int
		admission, mover bool
	}{
		{2, true, false}, {4, true, true}, {4, false, false}, {3, false, true},
		{3, true, false}, {4, true, true}, {4, true, true}, {3, true, true},
		{4, true, false}, {4, true, true}, {3, true, false}, {2, false, true},
		{3, true, true}, {2, true, true}, {4, true, true}, {3, true, true},
		{4, false, false}, {2, false, false}, {2, false, true}, {2, true, true},
		{3, false, true}, {3, true, true}, {4, true, false}, {4, false, false},
		{4, false, true}, {2, false, false}, {3, true, true}, {3, false, false},
		{4, false, true}, {3, false, true}, {2, false, true}, {2, true, false},
	}
	for seed, w := range want {
		d, a, m := HuntShape(uint64(seed))
		if d != w.depth || a != w.admission || m != w.mover {
			t.Errorf("seed %d: HuntShape = (%d, %t, %t), want (%d, %t, %t)",
				seed, d, a, m, w.depth, w.admission, w.mover)
		}
	}
}

// TestScenarioMatrixDeterminism pins that a parallel scenario-matrix
// fan-out over a shared compiled Runner is cell-for-cell identical to
// the sequential reference, exactly like the workload matrix.
func TestScenarioMatrixDeterminism(t *testing.T) {
	scs := []*scenario.Runner{
		scenario.MustCompile(scenario.Generate(5), scenario.Options{}),
		scenario.MustCompile(scenario.Generate(7), scenario.Options{}),
	}
	cfg := DefaultConfig()
	cfg.Accesses = 20_000
	ratios := []Ratio{Ratio1to8}
	pols := []string{"memtis", "static", "autonuma"}
	seq, _, err := Sequential().RunScenarioMatrix(context.Background(), cfg, scs, ratios, pols)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := Parallel(8).RunScenarioMatrix(context.Background(), cfg, scs, ratios, pols)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Cells) != len(scs)*len(ratios)*len(pols) {
		t.Fatalf("matrix has %d cells", len(seq.Cells))
	}
	for i := range seq.Cells {
		a, b := seq.Cells[i], par.Cells[i]
		if a.Workload != b.Workload || a.Ratio != b.Ratio || a.Policy != b.Policy {
			t.Fatalf("cell %d order mismatch: %+v vs %+v", i, a, b)
		}
		if a.Value != b.Value || a.Result.AppNS != b.Result.AppNS {
			t.Fatalf("cell %d (%s/%s/%s) diverged: %v vs %v",
				i, a.Workload, a.Ratio, a.Policy, a.Value, b.Value)
		}
	}
}
