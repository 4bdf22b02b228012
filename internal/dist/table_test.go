package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential tests for the table-driven samplers: every draw and the
// RNG state after the draws must equal the exact reference's.

var (
	diffS     = []float64{1.05, 1.15, 1.25, 1.30, 1.40, 1.45, 2, 3}
	diffN     = []uint64{1, 2, 3, 17, 233, 2900, 13_000, 23_000, 113_000, 1 << 20}
	diffSeeds = []int64{1, 2, 42, 987654321}
	// grayS adds the s ≤ 1 exponents only Zipf serves (YCSB's 0.99,
	// scenario specs).
	grayS = append([]float64{0.5, 0.99, 1}, diffS...)
)

const diffDraws = 300_000

// stdZipfMatches draws count variates from NewStdZipf and rand.NewZipf
// over twin RNGs and reports the first difference, including a
// difference in how much of the RNG the draws consumed.
func stdZipfMatches(seed int64, s float64, n uint64, count int) error {
	ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	got, want := NewStdZipf(ra, s, 1, n-1), rand.NewZipf(rb, s, 1, n-1)
	for i := 0; i < count; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			return fmt.Errorf("draw %d: got %d, rand.Zipf %d", i, g, w)
		}
	}
	if g, w := ra.Int63(), rb.Int63(); g != w {
		return fmt.Errorf("RNG diverged after %d draws: next Int63 %d vs %d", count, g, w)
	}
	return nil
}

func TestStdZipfMatchesRand(t *testing.T) {
	for _, s := range diffS {
		t.Run(fmt.Sprint("s=", s), func(t *testing.T) {
			t.Parallel()
			for _, n := range diffN {
				for _, seed := range diffSeeds {
					if err := stdZipfMatches(seed, s, n, diffDraws); err != nil {
						t.Fatalf("s=%v n=%d seed=%d: %v", s, n, seed, err)
					}
				}
			}
		})
	}
}

// exactNext is Zipf.Next without the table: the kernel every tabled
// draw must agree with.
func exactNext(z *Zipf) uint64 {
	for {
		u := z.hIntegralNumElem + z.rng.Float64()*(z.hIntegralX1-z.hIntegralNumElem)
		x := z.hIntegralInv(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		}
		if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= z.sDiv || u >= z.hIntegral(k+0.5)-z.h(k) {
			return uint64(k) - 1
		}
	}
}

func TestZipfMatchesExact(t *testing.T) {
	for _, s := range grayS {
		t.Run(fmt.Sprint("s=", s), func(t *testing.T) {
			t.Parallel()
			for _, n := range diffN {
				for _, seed := range diffSeeds {
					ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					got, want := NewZipf(ra, s, n), NewZipf(rb, s, n)
					for i := 0; i < diffDraws/3; i++ {
						if g, w := got.Next(), exactNext(want); g != w {
							t.Fatalf("n=%d seed=%d draw %d: got %d, exact %d", n, seed, i, g, w)
						}
					}
					if g, w := ra.Int63(), rb.Int63(); g != w {
						t.Fatalf("n=%d seed=%d: RNG diverged", n, seed)
					}
				}
			}
		})
	}
}

// countingSource counts the draws a kernel takes beyond the r it was
// handed.
type countingSource struct {
	rand.Source
	calls int
}

func (c *countingSource) Int63() int64 { c.calls++; return c.Source.Int63() }

// bucketProbes are the draws of bucket j that lie closest to its
// neighbours, plus its midpoint.
func bucketProbes(j int) []float64 {
	lo, hi := float64(j)/tableSize, float64(j+1)/tableSize
	return []float64{lo, math.Nextafter(lo, 1), (lo + hi) / 2, math.Nextafter(hi, 0)}
}

// TestTableEntriesAreExact runs the exact kernel at the edges of every
// tabled bucket: each must return the entry on its first iteration.
func TestTableEntriesAreExact(t *testing.T) {
	for _, s := range grayS {
		for _, n := range diffN {
			src := &countingSource{Source: rand.NewSource(1)}
			z := NewStdZipf(rand.New(src), s, 1, n-1) // nil for s ≤ 1
			g := NewZipf(rand.New(src), s, n)
			for j := 0; j < tableSize; j++ {
				for _, r := range bucketProbes(j) {
					if z != nil && z.tab[j] != noEntry {
						if k, e := z.exact(r), z.tab[j]; k != uint64(e) || src.calls != 0 {
							t.Fatalf("StdZipf s=%v n=%d bucket %d r=%v: entry %d, exact %d after %d redraws", s, n, j, r, e, k, src.calls)
						}
					}
					if e := g.tab[j]; e != noEntry {
						if k := g.exact(r); k != uint64(e) || src.calls != 0 {
							t.Fatalf("Zipf s=%v n=%d bucket %d r=%v: entry %d, exact %d after %d redraws", s, n, j, r, e, k, src.calls)
						}
					}
				}
			}
		}
	}
}

// coverage is the fraction of draws a table answers.
func coverage(t *table) float64 {
	hit := 0
	for _, e := range t {
		if e != noEntry {
			hit++
		}
	}
	return float64(hit) / tableSize
}

// modelZipfs are the (s, n) pairs the workload models draw from at
// their default Table 2 sizes (n in pages, or in 2MB blocks for the
// block-skewed regions).
var modelZipfs = []struct {
	model string
	s     float64
	n     uint64
}{
	{"graph500.vertices", 1.25, 13_564},
	{"graph500.edges", 1.45, 238},
	{"pagerank", 1.05, 3_019},
	{"xsbench", 1.30, 88},
	{"liblinear.features", 1.40, 249},
	{"liblinear.model", 1.15, 11_113},
	{"silo", 1.15, 115_895},
	{"btree", 1.25, 23_594},
	{"603.bwaves", 1.30, 31},
	{"654.roms", 1.40, 17},
}

func TestTableCoverage(t *testing.T) {
	for _, m := range modelZipfs {
		c := coverage(&NewStdZipf(rand.New(rand.NewSource(1)), m.s, 1, m.n-1).tab)
		t.Logf("%s s=%v n=%d: %.1f%% of draws tabled", m.model, m.s, m.n, 100*c)
		if c < 0.3 {
			t.Errorf("%s s=%v n=%d: table covers only %.1f%% of draws", m.model, m.s, m.n, 100*c)
		}
	}
}

func FuzzStdZipfMatchesRand(f *testing.F) {
	f.Add(int64(1), 1.15, uint64(113_000))
	f.Add(int64(2), 1.05, uint64(1))
	f.Add(int64(3), 3.0, uint64(2))
	f.Fuzz(func(t *testing.T, seed int64, s float64, n uint64) {
		// Fold the inputs into rand.Zipf's domain, s ∈ (1, 8) and n ≥ 1,
		// reaching down to the untabled exponents next to s = 1.
		if math.IsNaN(s) || math.IsInf(s, 0) {
			s = 1.5
		}
		s = 1 + math.Max(math.Abs(math.Mod(s, 7)), 0x1p-40)
		n = n%(1<<24) + 1
		if err := stdZipfMatches(seed, s, n, 5000); err != nil {
			t.Fatalf("s=%v n=%d seed=%d: %v", s, n, seed, err)
		}
	})
}

func BenchmarkZipf(b *testing.B) {
	for _, m := range modelZipfs {
		name := fmt.Sprintf("%s/s=%v/n=%d", m.model, m.s, m.n)
		b.Run("rand/"+name, func(b *testing.B) {
			z := rand.NewZipf(rand.New(rand.NewSource(1)), m.s, 1, m.n-1)
			for i := 0; i < b.N; i++ {
				z.Uint64()
			}
		})
		b.Run("std/"+name, func(b *testing.B) {
			z := NewStdZipf(rand.New(rand.NewSource(1)), m.s, 1, m.n-1)
			for i := 0; i < b.N; i++ {
				z.Uint64()
			}
		})
		b.Run("gray/"+name, func(b *testing.B) {
			z := NewZipf(rand.New(rand.NewSource(1)), m.s, m.n)
			for i := 0; i < b.N; i++ {
				z.Next()
			}
		})
	}
}
