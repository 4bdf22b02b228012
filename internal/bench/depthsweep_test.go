package bench

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"memtis/internal/obs"
	"memtis/internal/tier"
	"memtis/internal/workload"
)

// TestTopologyForDepth pins the shape contract of the sweep's derived
// hierarchies: depth 2 is exactly the default pair, deeper chains keep
// the ratio-derived fast tier on top and the over-provisioned tier at
// the bottom, and unsupported depths are rejected.
func TestTopologyForDepth(t *testing.T) {
	rss := workload.MustNew("silo").Spec().RSSBytes()
	for _, depth := range DepthSweepDepths {
		topo, err := TopologyForDepth(rss, Ratio1to8, depth, tier.NVM)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if topo.Depth() != depth {
			t.Fatalf("depth %d topology has %d tiers", depth, topo.Depth())
		}
		fast := uint64(float64(rss) * Ratio1to8.FastFrac)
		if fast < tier.HugePageSize*2 {
			fast = tier.HugePageSize * 2
		}
		if topo.Tiers[0].Kind != tier.DRAM || topo.Tiers[0].Bytes != fast {
			t.Errorf("depth %d top tier %+v, want DRAM of %d bytes", depth, topo.Tiers[0], fast)
		}
		last := topo.Tiers[depth-1]
		if want := rss + rss/4 + 16*tier.HugePageSize; last.Bytes != want {
			t.Errorf("depth %d bottom tier holds %d bytes, want %d", depth, last.Bytes, want)
		}
	}
	d2, _ := TopologyForDepth(rss, Ratio1to8, 2, tier.NVM)
	fast := uint64(float64(rss) * Ratio1to8.FastFrac)
	want := tier.DefaultTopology(fast, rss+rss/4+16*tier.HugePageSize, tier.NVM)
	if !reflect.DeepEqual(d2, want) {
		t.Errorf("depth-2 topology %+v differs from the default pair %+v", d2, want)
	}
	for _, depth := range []int{0, 1, 5} {
		if _, err := TopologyForDepth(rss, Ratio1to8, depth, tier.NVM); err == nil {
			t.Errorf("depth %d accepted", depth)
		}
	}
}

// TestDepthSweepTraceDeterminism is the sweep's half of the §11
// determinism argument: a (depth x admission x fault-rate) matrix with
// the background mover enabled produces byte-identical event traces
// whether the cells run sequentially or on 8 workers.
func TestDepthSweepTraceDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Accesses = 100_000
	cfg.Mover = tier.MoverConfig{BytesPerWindow: 8 << 20}
	depths := []int{2, 4}
	admissions := []string{"always", "benefit"}
	rates := []uint32{0, 50_000}
	pols := []string{"memtis"}

	var seqMatrix *Matrix
	runInto := func(r *Runner) map[string][]byte {
		c := cfg
		c.EventDir = t.TempDir()
		m, _, err := r.DepthSweep(context.Background(), c, "silo", Ratio1to8, pols, depths, admissions, rates)
		if err != nil {
			t.Fatal(err)
		}
		if seqMatrix == nil {
			seqMatrix = m
		}
		return readTraces(t, c.EventDir)
	}
	seq := runInto(Sequential())
	par := runInto(Parallel(8))

	if want := len(depths) * len(admissions) * len(rates) * len(pols); len(seq) != want {
		t.Fatalf("trace files = %d, want %d", len(seq), want)
	}
	for name, data := range seq {
		if !bytes.Equal(data, par[name]) {
			t.Fatalf("%s differs between sequential and 8-worker runs", name)
		}
	}

	// Every cell ran with the mover on: its budget ledger must balance
	// (moved + wasted never exceeds granted) and at least one cell must
	// actually have routed migrations through the queue.
	var enqueued uint64
	for _, c := range seqMatrix.Cells {
		cnt := map[string]uint64{}
		for _, mt := range c.Result.Counters {
			cnt[mt.Name] = mt.Value
		}
		if cnt["mover/moved_bytes"]+cnt["mover/wasted_bytes"] > cnt["mover/granted_bytes"] {
			t.Errorf("%s/%s: mover spent %d+%d bytes of a %d-byte grant",
				c.Ratio, c.Policy, cnt["mover/moved_bytes"], cnt["mover/wasted_bytes"], cnt["mover/granted_bytes"])
		}
		enqueued += cnt["mover/enqueued"]
	}
	if enqueued == 0 {
		t.Error("no cell enqueued a single mover task")
	}
}

// TestDepthSweepTwoTierGolden is the backwards-compatibility half of
// the §11 determinism argument: a run on an explicit depth-2 topology
// (the sweep's reference plane) is byte-identical — same event trace,
// same result, same counters — to the default two-tier machine the
// golden traces were recorded on.
func TestDepthSweepTwoTierGolden(t *testing.T) {
	// hemem is excluded: MachineFor shrinks its fast tier by the
	// policy's over-allocation (Table 3 accounting), an adjustment the
	// depth sweep deliberately does not replicate.
	for _, pol := range []string{"memtis", "tpp"} {
		cfg := DefaultConfig()
		cfg.Accesses = 150_000

		run := func(c Config) ([]byte, []obs.Metric) {
			var buf bytes.Buffer
			sink := obs.NewJSONL(&buf)
			c.Trace = obs.NewTracer(sink)
			res := RunOne("silo", pol, Ratio1to8, c)
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes(), res.Counters
		}
		defTrace, defCounters := run(cfg)

		tcfg := cfg
		rss := workload.MustNew("silo").Spec().RSSBytes()
		topo, err := TopologyForDepth(rss, Ratio1to8, 2, cfg.CapKind)
		if err != nil {
			t.Fatal(err)
		}
		tcfg.Topology = topo
		topoTrace, topoCounters := run(tcfg)

		if !bytes.Equal(defTrace, topoTrace) {
			t.Errorf("%s: event trace differs between the default machine and an explicit depth-2 topology", pol)
		}
		if !reflect.DeepEqual(defCounters, topoCounters) {
			t.Errorf("%s: counters differ between the default machine and an explicit depth-2 topology:\n%v\n%v",
				pol, defCounters, topoCounters)
		}
	}
}

// TestDepthSweepAdmissionLedger demonstrates the acceptance claim
// behind the admission counters: in a deep hierarchy there is a sweep
// cell where the benefit gate's rejections were vindicated — the pages
// it refused to promote did not go on to earn their migration cost
// (rejected_wasted dominates rejected_regret).
func TestDepthSweepAdmissionLedger(t *testing.T) {
	// Nimble at depth 4 is the demonstration cell: its exchange-driven
	// promotions target pages whose sampled hotness is far below what a
	// three-hop copy costs, so the benefit gate rejects them — and the
	// settlement window then confirms none would have earned the copy
	// back.
	cfg := DefaultConfig()
	cfg.Accesses = 200_000
	m, _, err := Sequential().DepthSweep(context.Background(), cfg, "silo", Ratio1to8,
		[]string{"nimble"}, []int{4}, []string{"always", "benefit"}, []uint32{0})
	if err != nil {
		t.Fatal(err)
	}
	counters := func(adm string) map[string]uint64 {
		for _, c := range m.Cells {
			if c.Ratio == depthCoord(Ratio1to8, 4, adm, 0) {
				cnt := map[string]uint64{}
				for _, mt := range c.Result.Counters {
					cnt[mt.Name] = mt.Value
				}
				return cnt
			}
		}
		t.Fatalf("cell %s missing", adm)
		return nil
	}
	always := counters("always")
	if always["admission/admitted"] == 0 {
		t.Error("always-admit cell admitted nothing")
	}
	if always["admission/rejected"] != 0 {
		t.Errorf("always-admit cell rejected %d migrations", always["admission/rejected"])
	}
	benefit := counters("benefit")
	if benefit["admission/rejected"] == 0 {
		t.Fatal("benefit cell rejected nothing — the gate is not engaging")
	}
	wasted, regret := benefit["admission/rejected_wasted"], benefit["admission/rejected_regret"]
	if wasted == 0 {
		t.Error("benefit cell settled no rejection as wasted")
	}
	if wasted <= regret {
		t.Errorf("rejections were net-positive: wasted=%d regret=%d", wasted, regret)
	}
}
