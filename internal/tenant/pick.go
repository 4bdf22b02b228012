package tenant

// wpick is the scheduler's weighted draw: a Fenwick (binary indexed)
// tree over the runnable tenants' static weights, so drawing the next
// tenant is O(log n) instead of two O(n) scans — the dominant
// scheduler cost at 1024 tenants. fen is 1-indexed; wcur[i] is the
// weight currently credited to tenant i (0 when not runnable) and sum
// their total.
type wpick struct {
	fen  []uint64
	wcur []uint64
	sum  uint64
	pow  int // largest power of two <= n
	n    int
}

func newWpick(n int) *wpick {
	t := &wpick{fen: make([]uint64, n+1), wcur: make([]uint64, n), n: n, pow: 1}
	for t.pow*2 <= n {
		t.pow *= 2
	}
	return t
}

// set credits tenant i's weight to the tree (no-op when already set).
func (t *wpick) set(i int, w uint64) {
	if t.wcur[i] != 0 {
		return
	}
	t.wcur[i] = w
	t.sum += w
	for j := i + 1; j <= t.n; j += j & -j {
		t.fen[j] += w
	}
}

// clear removes tenant i's weight from the tree (no-op when not set).
func (t *wpick) clear(i int) {
	w := t.wcur[i]
	if w == 0 {
		return
	}
	t.wcur[i] = 0
	t.sum -= w
	for j := i + 1; j <= t.n; j += j & -j {
		t.fen[j] -= w
	}
}

// pick returns the index the draw x selects, for x in [0, sum): a
// Fenwick prefix-sum search selecting exactly the tenant a linear
// cumulative-weight scan over wcur would return.
func (t *wpick) pick(x uint64) int {
	i := 0
	for k := t.pow; k > 0; k >>= 1 {
		if ni := i + k; ni <= t.n && t.fen[ni] <= x {
			x -= t.fen[ni]
			i = ni
		}
	}
	return i
}
