package dist

import "math"

// Both Zipf samplers use rejection-inversion: a draw maps the uniform
// r ∈ [0,1) to u = a + r·b, inverts x = H⁻¹(u), rounds k = ⌊x+0.5⌋ and
// accepts k unless a rejection test fails, in which case it draws again.
// Every step is monotone in r, so each head rank owns one interval of r
// on which it is returned on the first iteration. A table over r caches
// those intervals: a draw whose bucket lies wholly inside one of them is
// one load, and every other draw runs the exact kernel on the same r.
const (
	tableBits = 12
	tableSize = 1 << tableBits // buckets over r; 8 KB of uint16
	// noEntry marks a bucket whose draws take the exact kernel.
	noEntry = math.MaxUint16
	// guard is the margin in r kept between a tabled bucket and every
	// rank or acceptance boundary. The boundaries are computed
	// analytically from H; the kernel's own exp/log values differ from
	// them by a few ULPs, which is many orders of magnitude below 2^-30
	// in r (NewStdZipf excludes the exponents where it is not).
	guard = 0x1p-30
)

// table maps bucket ⌊r·tableSize⌋ of the uniform draw to the rank, less
// the smallest rank, that every r in the bucket returns on its first
// iteration, or to noEntry.
type table [tableSize]uint16

// lookup returns r's bucket entry. r < 1, so the mask only drops the
// bounds check.
func (t *table) lookup(r float64) uint16 {
	return t[int(r*tableSize)&(tableSize-1)]
}

// inversion describes one rejection-inversion kernel to the table
// builder: u = a + r·b with b < 0 (so k falls as r rises), H is
// increasing with x = H⁻¹(u), and k is accepted on the first iteration
// iff k − x ≤ sd or u ≥ accept(k). Ranks kMin..kMax are tabled; they
// must be exactly the ranks returned as ⌊x+0.5⌋ without clamping.
type inversion struct {
	a, b       float64
	h          func(x float64) float64
	sd         float64
	accept     func(k float64) float64
	kMin, kMax float64
}

// build fills t. Rank k is returned for x ∈ [k−0.5, k+0.5), that is for
// r ∈ (r(H(k+0.5)), r(H(k−0.5))], and accepted at once for x ≥ k − sd or
// u ≥ accept(k), that is for r ≤ max(r(H(k−sd)), r(accept(k))). A
// bucket takes k when it lies inside the intersection with guard to
// spare on both sides. Rank intervals shrink as k grows, so filling
// stops at the first one narrower than two buckets. A NaN bound fails
// every comparison and tables nothing.
func (inv inversion) build(t *table) {
	for j := range t {
		t[j] = noEntry
	}
	if !(inv.b < 0) {
		return
	}
	rOf := func(u float64) float64 { return (u - inv.a) / inv.b }
	top := rOf(inv.h(inv.kMin - 0.5))
	for k := inv.kMin; k <= inv.kMax && k-inv.kMin < noEntry; k++ {
		lo := rOf(inv.h(k + 0.5))
		if !(top-lo >= 2.0/tableSize) {
			return
		}
		hi := math.Min(top, math.Max(rOf(inv.h(k-inv.sd)), rOf(inv.accept(k))))
		first := max(math.Ceil((lo+guard)*tableSize), 0)
		end := min(math.Floor((hi-guard)*tableSize), tableSize)
		for j := first; j < end; j++ {
			t[int(j)] = uint16(k - inv.kMin)
		}
		top = lo
	}
}
