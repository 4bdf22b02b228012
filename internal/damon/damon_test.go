package damon

import (
	"math/rand"
	"testing"
)

func TestMonitorInitialRegions(t *testing.T) {
	m := NewMonitor(Config{SampleIntervalNS: 1000, MinRegions: 10, MaxRegions: 100}, 0, 10000)
	if got := m.Regions(); got != 10 {
		t.Fatalf("initial regions = %d, want 10", got)
	}
	// Regions must tile [0, 10000) without gaps.
	snapless := m.regions
	var covered uint64
	for i, r := range snapless {
		if r.End <= r.Start {
			t.Fatalf("region %d empty", i)
		}
		if i > 0 && snapless[i-1].End != r.Start {
			t.Fatalf("gap before region %d", i)
		}
		covered += r.End - r.Start
	}
	if covered != 10000 {
		t.Fatalf("coverage = %d", covered)
	}
}

func TestRegionCountStaysBounded(t *testing.T) {
	m := NewMonitor(Config{SampleIntervalNS: 1000, MinRegions: 10, MaxRegions: 100, AggrSamples: 5}, 0, 1<<20)
	rng := rand.New(rand.NewSource(1))
	var now uint64
	for i := 0; i < 200_000; i++ {
		now += 50
		m.Observe(rng.Uint64()%(1<<20), now)
	}
	if n := m.Regions(); n < 10 || n > 100 {
		t.Fatalf("regions = %d, outside [10,100]", n)
	}
	if len(m.Snapshots()) == 0 {
		t.Fatal("no snapshots")
	}
}

func TestHotRegionDetected(t *testing.T) {
	const space = 1 << 16
	m := NewMonitor(Config{SampleIntervalNS: 2000, MinRegions: 16, MaxRegions: 64}, 0, space)
	rng := rand.New(rand.NewSource(2))
	var now uint64
	// 90% of accesses to the first 1/16 of the space.
	for i := 0; i < 400_000; i++ {
		now += 50
		var vpn uint64
		if rng.Intn(10) != 0 {
			vpn = rng.Uint64() % (space / 16)
		} else {
			vpn = rng.Uint64() % space
		}
		m.Observe(vpn, now)
	}
	m.Finish(now)
	snaps := m.Snapshots()
	if len(snaps) < 2 {
		t.Fatal("too few snapshots")
	}
	// Aggregate the hit density over all snapshots: the sampled-page
	// signal per window is sparse, but its sum must concentrate in the
	// hot sixteenth of the space.
	var hotNr, coldNr, hotN, coldN float64
	for _, snap := range snaps {
		for _, r := range snap.Regions {
			if r.Start < space/16 {
				hotNr += float64(r.NrAccesses)
				hotN++
			} else {
				coldNr += float64(r.NrAccesses)
				coldN++
			}
		}
	}
	if hotN == 0 || coldN == 0 {
		t.Fatal("degenerate region layout")
	}
	if hotNr/hotN <= 2*coldNr/coldN {
		t.Fatalf("hot region not distinguished: hot avg %.4f cold avg %.4f", hotNr/hotN, coldNr/coldN)
	}
}

func TestCPUOverheadScalesWithRegions(t *testing.T) {
	mkRun := func(minR, maxR int) float64 {
		m := NewMonitor(Config{SampleIntervalNS: 1000, MinRegions: minR, MaxRegions: maxR}, 0, 1<<20)
		rng := rand.New(rand.NewSource(3))
		var now uint64
		for i := 0; i < 100_000; i++ {
			now += 100
			m.Observe(rng.Uint64()%(1<<20), now)
		}
		return m.CPUOverhead()
	}
	coarse := mkRun(10, 100)
	fine := mkRun(2000, 4000)
	if fine <= coarse*5 {
		t.Fatalf("fine-grained monitoring not costlier: %v vs %v", fine, coarse)
	}
}

func TestAccuracyPrefersFreshFineEstimates(t *testing.T) {
	// Truth: two windows with disjoint hot pages.
	w0 := map[uint64]uint64{}
	w1 := map[uint64]uint64{}
	for p := uint64(0); p < 100; p++ {
		w0[p] = 100
		w1[p+1000] = 100
		w0[p+2000] = 1
		w1[p+2000] = 1
	}
	const winNS = 1000
	fresh := []Snapshot{
		{TimeNS: 0, Regions: []Region{{Start: 0, End: 100, NrAccesses: 20}, {Start: 100, End: 3000, NrAccesses: 0}}},
		{TimeNS: winNS, Regions: []Region{{Start: 0, End: 1000, NrAccesses: 0}, {Start: 1000, End: 1100, NrAccesses: 20}, {Start: 1100, End: 3000, NrAccesses: 0}}},
	}
	stale := []Snapshot{
		{TimeNS: 0, Regions: []Region{{Start: 0, End: 100, NrAccesses: 20}, {Start: 100, End: 3000, NrAccesses: 0}}},
	}
	fa := Accuracy(fresh, []map[uint64]uint64{w0, w1}, winNS)
	sa := Accuracy(stale, []map[uint64]uint64{w0, w1}, winNS)
	if fa <= sa {
		t.Fatalf("fresh %.3f not better than stale %.3f", fa, sa)
	}
	if fa < 0.9 {
		t.Fatalf("fresh accuracy %.3f too low", fa)
	}
}

func TestAccuracyEmptyInputs(t *testing.T) {
	if Accuracy(nil, nil, 1) != 0 {
		t.Fatal("nil inputs should score 0")
	}
	if Accuracy([]Snapshot{{}}, []map[uint64]uint64{{}}, 1) != 0 {
		t.Fatal("empty truth should score 0")
	}
}

// TestHotOverlapIgnoresMapOrder pins the tie-break: the same estimate
// and truth, built in different insertion orders, score identically.
// Every estimate ties, and half the truth counts tie across the top-k
// boundary, so without a page-number tie-break the score would follow
// map iteration order.
func TestHotOverlapIgnoresMapOrder(t *testing.T) {
	const pages = 400
	build := func(order []int) (map[uint64]float64, map[uint64]uint64) {
		est := map[uint64]float64{}
		truth := map[uint64]uint64{}
		for _, i := range order {
			p := uint64(i)
			est[p] = 1
			truth[p] = 1 + p%2
		}
		return est, truth
	}
	fwd := make([]int, pages)
	for i := range fwd {
		fwd[i] = i
	}
	want := hotOverlap(build(fwd))
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(pages)
		if got := hotOverlap(build(order)); got != want {
			t.Fatalf("trial %d: score %v, want %v (insertion order changed the score)", trial, got, want)
		}
	}
}
