//go:build !amd64

package mat

import "math"

// adam is the one-lane Adam loop on architectures without a packed kernel.
// g, m and v must be at least as long as w.
func adam(w, g, m, v []float64, p *AdamParams) {
	lr, l2, eps := p.LR, p.L2, p.Eps
	beta1, beta2 := p.Beta1, p.Beta2
	omb1, omb2 := p.OneMinusBeta1, p.OneMinusBeta2
	c1, c2 := p.C1, p.C2
	for i := range w {
		gi := g[i] + l2*w[i]
		mi := beta1*m[i] + omb1*gi
		vi := beta2*v[i] + omb2*gi*gi
		m[i] = mi
		v[i] = vi
		w[i] -= lr * (mi / c1) / (math.Sqrt(vi/c2) + eps)
	}
}
