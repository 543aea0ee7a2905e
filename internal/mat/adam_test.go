package mat

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// naiveAdam is the scalar per-element Adam loop the kernels must reproduce
// bit for bit, with every coefficient passed in: the expressions and their
// evaluation order are those of ann's historical update closure, but that
// closure wrote (1-beta1) and (1-beta2) over package constants, which Go
// folds exactly (0.1, 0.001). Passing omb1 and omb2 lets the tests check the
// kernel against both that folded form and 1−β computed at run time over
// float64 variables (0.09999999999999998, 0.0010000000000000009).
func naiveAdam(w, g, m, v []float64, lr, l2, beta1, omb1, beta2, omb2, eps, c1, c2 float64) {
	for i := range w {
		gi := g[i] + l2*w[i]
		m[i] = beta1*m[i] + omb1*gi
		v[i] = beta2*v[i] + omb2*gi*gi
		w[i] -= lr * (m[i] / c1) / (math.Sqrt(v[i]/c2) + eps)
	}
}

// adamCoeffs is one set of step coefficients: the folded or the run-time
// 1−β, and a bias correction c1 that is exactly 1 or not.
func adamCoeffs(folded bool, step int) AdamParams {
	const lr, l2, beta1, beta2, eps = 1e-2, 1e-3, 0.9, 0.999, 1e-8
	p := AdamParams{
		LR: lr, L2: l2, Eps: eps, Beta1: beta1, Beta2: beta2,
		OneMinusBeta1: 1 - beta1, OneMinusBeta2: 1 - beta2,
		C1: 1 - math.Pow(beta1, float64(step)),
		C2: 1 - math.Pow(beta2, float64(step)),
	}
	if !folded {
		b1, b2 := p.Beta1, p.Beta2
		p.OneMinusBeta1, p.OneMinusBeta2 = 1-b1, 1-b2
	}
	return p
}

// fillAdamRand is fillRand plus the IEEE-754 edge values the element-wise
// Adam arithmetic must carry through identically: signed zeros, subnormals
// and magnitudes whose squares overflow.
func fillAdamRand(r *rng.RNG, dst []float64) {
	fillRand(r, dst)
	for i := range dst {
		switch r.Intn(10) {
		case 0:
			dst[i] = math.Copysign(0, -1)
		case 1:
			dst[i] = math.SmallestNonzeroFloat64 * float64(1+r.Intn(1000))
		case 2:
			dst[i] = r.NormFloat64() * 1e200
		}
	}
}

// checkAdam steps a block of n elements starting at offset off (odd offsets
// misalign the packed loads) through AdamUpdate against naiveAdam for
// several steps with coefficients p, requiring bit-identical w, m and v and
// g left untouched.
func checkAdam(t *testing.T, r *rng.RNG, n, off int, p AdamParams) {
	t.Helper()
	alloc := func() []float64 { return make([]float64, off+n+1) }
	w0, m0, v0 := alloc(), alloc(), alloc()
	fillAdamRand(r, w0)
	fillAdamRand(r, m0)
	fillRand(r, v0)
	for i := range v0 {
		v0[i] = math.Abs(v0[i]) // a second moment is never negative
	}
	wRef, mRef, vRef := append([]float64(nil), w0...), append([]float64(nil), m0...), append([]float64(nil), v0...)
	wUpd, mUpd, vUpd := append([]float64(nil), w0...), append([]float64(nil), m0...), append([]float64(nil), v0...)
	span := func(s []float64) []float64 { return s[off : off+n] }
	g := alloc()
	for step := 0; step < 3; step++ {
		fillAdamRand(r, g)
		g0 := append([]float64(nil), g...)
		naiveAdam(span(wRef), span(g), span(mRef), span(vRef),
			p.LR, p.L2, p.Beta1, p.OneMinusBeta1, p.Beta2, p.OneMinusBeta2, p.Eps, p.C1, p.C2)
		AdamUpdate(span(wUpd), span(g), span(mUpd), span(vUpd), &p)
		bitsEqual(t, "AdamUpdate w", wUpd, wRef)
		bitsEqual(t, "AdamUpdate m", mUpd, mRef)
		bitsEqual(t, "AdamUpdate v", vUpd, vRef)
		bitsEqual(t, "AdamUpdate g (must be untouched)", g, g0)
	}
}

// TestAdamStepMatchesNaive pins the packed kernel bit-identical to the
// scalar loop across every length from empty through several odd tails, at
// aligned and odd offsets, with folded and run-time 1−β, and on both sides
// of the exact c1 == 1 shortcut (from step 356 on β1^t < 2⁻⁵⁴, so
// 1−β1^t rounds to 1).
func TestAdamStepMatchesNaive(t *testing.T) {
	r := rng.New(5)
	for _, folded := range []bool{true, false} {
		for _, step := range []int{1, 7, 355, 356, 2600} {
			p := adamCoeffs(folded, step)
			if (p.C1 == 1) != (step >= 356) {
				t.Fatalf("step %d: c1 = %v, want exactly 1 iff step >= 356", step, p.C1)
			}
			for n := 0; n <= 67; n++ {
				for _, off := range []int{0, 1, 3} {
					checkAdam(t, r, n, off, p)
				}
			}
		}
	}
	f, rt := adamCoeffs(true, 1), adamCoeffs(false, 1)
	if f.OneMinusBeta1 != 0.1 || f.OneMinusBeta2 != 0.001 {
		t.Fatalf("folded 1−β = %v, %v; want exactly 0.1, 0.001", f.OneMinusBeta1, f.OneMinusBeta2)
	}
	if rt.OneMinusBeta1 != 0.09999999999999998 || rt.OneMinusBeta2 != 0.0010000000000000009 {
		t.Fatalf("run-time 1−β = %v, %v; the table no longer covers the rounded coefficients", rt.OneMinusBeta1, rt.OneMinusBeta2)
	}
}
