package mat

// AdamParams holds the scalar coefficients of one bias-corrected Adam step:
//
//	gi   = g[i] + L2·w[i]
//	m[i] = Beta1·m[i] + OneMinusBeta1·gi
//	v[i] = Beta2·v[i] + OneMinusBeta2·gi·gi
//	w[i] −= LR · (m[i]/C1) / (√(v[i]/C2) + Eps)
//
// C1 = 1−β1^t and C2 = 1−β2^t are the caller's bias-correction terms for
// step t (hoisted: the kernel never calls math.Pow). OneMinusBeta1 and
// OneMinusBeta2 are supplied rather than derived, because a caller that
// writes `1 - beta1` over constants gets the exactly folded 0.1 while the
// same expression over float64 variables rounds to 0.09999999999999998; the
// kernel must reproduce whichever the caller's scalar loop used (see the
// package doc).
type AdamParams struct {
	LR, L2, Eps                  float64
	Beta1, Beta2                 float64
	OneMinusBeta1, OneMinusBeta2 float64
	C1, C2                       float64
}

// AdamUpdate applies one Adam step (see AdamParams) to the parameter block w
// and its moments m and v from the gradient g, leaving g untouched. g, m and
// v must be at least as long as w. Each element reads and writes only its
// own index, so the packed kernel is bit-identical to the scalar loop.
func AdamUpdate(w, g, m, v []float64, p *AdamParams) {
	adam(w, g[:len(w)], m[:len(w)], v[:len(w)], p, false)
}

// AdamStep applies one Adam step to contiguous parameter, gradient and
// moment slabs of identical length, with 1−beta1 and 1−beta2 computed at
// run time from the arguments. The gradient slab is cleared as it is
// consumed, so the caller's next accumulation pass starts from zero without
// a separate memclr over the slab. It runs the same kernel as AdamUpdate.
func AdamStep(w, g, m, v []float64, lr, l2, beta1, beta2, eps, c1, c2 float64) {
	p := AdamParams{
		LR: lr, L2: l2, Eps: eps,
		Beta1: beta1, Beta2: beta2,
		OneMinusBeta1: 1 - beta1, OneMinusBeta2: 1 - beta2,
		C1: c1, C2: c2,
	}
	adam(w, g[:len(w)], m[:len(w)], v[:len(w)], &p, true)
}
