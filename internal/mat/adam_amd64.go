package mat

// adamSSE2 runs the Adam step over all of w, two lanes at a time
// (adam_amd64.s). g, m and v must be at least as long as w. skipC1 drops the
// m/C1 division, exact when C1 == 1 (x/1 == x).
//
//go:noescape
func adamSSE2(w, g, m, v []float64, p *AdamParams, skipC1 bool)

func adam(w, g, m, v []float64, p *AdamParams) {
	adamSSE2(w, g, m, v, p, p.C1 == 1)
}
