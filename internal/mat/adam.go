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
	adam(w, g[:len(w)], m[:len(w)], v[:len(w)], p)
}
