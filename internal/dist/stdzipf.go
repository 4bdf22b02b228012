package dist

import (
	"math"
	"math/rand"
)

// StdZipf is math/rand.Zipf with a lookup table in front of its
// rejection-inversion kernel (W. Hörmann, G. Derflinger,
// "Rejection-Inversion to Generate Variates from Monotone Discrete
// Distributions"). It consumes the RNG exactly as rand.Zipf does and
// returns the same value on every draw; head ranks cost one table load
// instead of an exp and a log. The fields, constructor and kernel are
// Go's math/rand zipf.go (BSD-style licence) unchanged, expression by
// expression, so the compiler fuses the same operations on every
// platform.
type StdZipf struct {
	r            *rand.Rand
	imax         float64
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64
	tab          table
}

func (z *StdZipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *StdZipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// NewStdZipf returns a sampler of k ∈ [0, imax] with P(k) proportional
// to (v + k)^(−s), drawing from r exactly as rand.NewZipf(r, s, v,
// imax) would. It returns nil unless s > 1 and v ≥ 1.
func NewStdZipf(r *rand.Rand, s float64, v float64, imax uint64) *StdZipf {
	z := new(StdZipf)
	if s <= 1.0 || v < 1 {
		return nil
	}
	z.r = r
	z.imax = float64(imax)
	z.v = v
	z.q = s
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	// Within 2^-20 of s = 1 the factor 1/(1−s) amplifies the kernel's
	// rounding past guard, so no rank is tabled there.
	kMax := z.imax
	if z.q-1 < 0x1p-20 {
		kMax = -1
	}
	inversion{
		a: z.hxm, b: z.hx0minusHxm, h: z.h, sd: z.s,
		accept: func(k float64) float64 { return z.h(k+0.5) - math.Exp(-math.Log(k+z.v)*z.q) },
		kMin:   0, kMax: kMax,
	}.build(&z.tab)
	return z
}

// Uint64 returns the next variate: the table entry of the draw's bucket
// when it has one, else the exact iteration starting from the same draw.
func (z *StdZipf) Uint64() uint64 {
	r := z.r.Float64()
	if k := z.tab.lookup(r); k != noEntry {
		return uint64(k)
	}
	return z.exact(r)
}

// exact is rand.Zipf's Uint64 loop with its first draw r supplied.
func (z *StdZipf) exact(r float64) uint64 {
	k := 0.0

	for {
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		k = math.Floor(x + 0.5)
		if k-x <= z.s {
			break
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			break
		}
		r = z.r.Float64()
	}
	return uint64(k)
}
