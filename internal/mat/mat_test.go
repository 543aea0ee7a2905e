package mat

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// naiveGemm is the reference triple loop: per output element, k ascending.
func naiveGemm(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c[i*ldc+j]
			for kk := 0; kk < k; kk++ {
				s += a[i*lda+kk] * b[kk*ldb+j]
			}
			c[i*ldc+j] = s
		}
	}
}

// naiveGemmTA accumulates C += Aᵀ·B with the per-element k loop ascending.
func naiveGemmTA(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	for u := 0; u < m; u++ {
		for v := 0; v < n; v++ {
			s := c[u*ldc+v]
			for kk := 0; kk < k; kk++ {
				s += a[kk*lda+u] * b[kk*ldb+v]
			}
			c[u*ldc+v] = s
		}
	}
}

func naiveGemv(y []float64, a []float64, lda int, x []float64, m, n int) {
	for i := 0; i < m; i++ {
		s := y[i]
		for j := 0; j < n; j++ {
			s += a[i*lda+j] * x[j]
		}
		y[i] = s
	}
}

func naiveGemvT(y []float64, a []float64, lda int, x []float64, m, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			y[j] += x[i] * a[i*lda+j]
		}
	}
}

func naiveSpGemmOneHot(c []float64, ldc int, idx []int32, ldi int, w []float64, ldw int, m, d, h int, bias []float64) {
	for i := 0; i < m; i++ {
		for u := 0; u < h; u++ {
			c[i*ldc+u] = bias[u]
		}
		for j := 0; j < d; j++ {
			row := int(idx[i*ldi+j]) * ldw
			for u := 0; u < h; u++ {
				c[i*ldc+u] += w[row+u]
			}
		}
	}
}

func naiveMatchCounts(dst []int32, ldd int, a []int32, lda int, b []int32, ldb int, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var cnt int32
			for f := 0; f < k; f++ {
				if a[i*lda+f] == b[j*ldb+f] {
					cnt++
				}
			}
			dst[i*ldd+j] = cnt
		}
	}
}

// fillRand populates a slice with a reproducible mix of magnitudes, signs,
// and exact zeros so cancellation-order bugs surface.
func fillRand(r *rng.RNG, dst []float64) {
	for i := range dst {
		switch r.Intn(8) {
		case 0:
			dst[i] = 0
		case 1:
			dst[i] = r.NormFloat64() * 1e9
		case 2:
			dst[i] = r.NormFloat64() * 1e-9
		default:
			dst[i] = r.NormFloat64()
		}
	}
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d diverged: got %v (%#x) want %v (%#x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkKernels runs every kernel against its naive reference for one shape
// and stride set, requiring bit-identical outputs. Shared by the table test
// and the fuzzer.
func checkKernels(t *testing.T, seed uint64, m, n, k, lda, ldb, ldc int) {
	t.Helper()
	if lda < k {
		lda = k
	}
	if ldb < n {
		ldb = n
	}
	if ldc < n {
		ldc = n
	}
	r := rng.New(seed)
	a := make([]float64, m*lda+1)
	b := make([]float64, k*ldb+1)
	fillRand(r, a)
	fillRand(r, b)
	c0 := make([]float64, m*ldc+1)
	fillRand(r, c0)
	c1 := append([]float64(nil), c0...)
	Gemm(c0, ldc, a, lda, b, ldb, m, n, k)
	naiveGemm(c1, ldc, a, lda, b, ldb, m, n, k)
	bitsEqual(t, "Gemm", c0, c1)

	// GemmTA: A is k×m with leading dimension ldta.
	ldta := lda
	if ldta < m {
		ldta = m
	}
	at := make([]float64, k*ldta+1)
	fillRand(r, at)
	c0 = make([]float64, m*ldc+1)
	fillRand(r, c0)
	c1 = append([]float64(nil), c0...)
	GemmTA(c0, ldc, at, ldta, b, ldb, m, n, k)
	naiveGemmTA(c1, ldc, at, ldta, b, ldb, m, n, k)
	bitsEqual(t, "GemmTA", c0, c1)

	// Gemv / GemvT over the m×k matrix a.
	x := make([]float64, k)
	fillRand(r, x)
	y0 := make([]float64, m)
	fillRand(r, y0)
	y1 := append([]float64(nil), y0...)
	Gemv(y0, a, lda, x, m, k)
	naiveGemv(y1, a, lda, x, m, k)
	bitsEqual(t, "Gemv", y0, y1)

	xt := make([]float64, m)
	fillRand(r, xt)
	yt0 := make([]float64, k)
	fillRand(r, yt0)
	yt1 := append([]float64(nil), yt0...)
	GemvT(yt0, a, lda, xt, m, k)
	naiveGemvT(yt1, a, lda, xt, m, k)
	bitsEqual(t, "GemvT", yt0, yt1)

	// Dot and Axpy on dedicated k- and n-length vectors.
	dx := make([]float64, k)
	dy := make([]float64, k)
	fillRand(r, dx)
	fillRand(r, dy)
	if got, want := Dot(dx, dy), func() float64 {
		s := 0.0
		for i := 0; i < k; i++ {
			s += dx[i] * dy[i]
		}
		return s
	}(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Dot diverged: got %v want %v", got, want)
	}
	alpha := r.NormFloat64()
	axx := make([]float64, n)
	fillRand(r, axx)
	ax0 := make([]float64, n)
	fillRand(r, ax0)
	ax1 := append([]float64(nil), ax0...)
	Axpy(alpha, axx, ax0)
	for i := 0; i < n; i++ {
		ax1[i] += alpha * axx[i]
	}
	bitsEqual(t, "Axpy", ax0, ax1)

	// SpGemmOneHot: the weight table has m*k rows so any idx < m*k is valid;
	// exercise both the h>1 row-add path and the h==1 scalar path.
	d := k
	wrows := m*k + 1
	for _, h := range []int{1, n} {
		if h == 0 {
			continue
		}
		ldw := h
		w := make([]float64, wrows*ldw)
		fillRand(r, w)
		bias := make([]float64, h)
		fillRand(r, bias)
		idx := make([]int32, m*d+1)
		for i := range idx {
			idx[i] = int32(r.Intn(wrows))
		}
		s0 := make([]float64, m*ldc+1)
		s1 := make([]float64, m*ldc+1)
		fillRand(r, s0)
		copy(s1, s0)
		SpGemmOneHot(s0, ldc, idx, d, w, ldw, m, d, h, bias)
		naiveSpGemmOneHot(s1, ldc, idx, d, w, ldw, m, d, h, bias)
		bitsEqual(t, "SpGemmOneHot", s0, s1)
	}

	// GatherSum against the plain loop, continuing from a bias term.
	{
		w := make([]float64, m*k+1)
		fillRand(r, w)
		idx := make([]int32, k)
		for i := range idx {
			idx[i] = int32(r.Intn(len(w)))
		}
		bias := r.NormFloat64()
		want := bias
		for _, ix := range idx {
			want += w[ix]
		}
		if got := GatherSum(bias, w, idx); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("GatherSum diverged: got %v want %v", got, want)
		}
	}

	// MatchCounts on small-domain codes so matches actually occur. Both
	// operands are rows of length k, so they share the ≥k stride lda.
	ca := make([]int32, m*lda+1)
	cb := make([]int32, n*lda+1)
	for i := range ca {
		ca[i] = int32(r.Intn(3))
	}
	for i := range cb {
		cb[i] = int32(r.Intn(3))
	}
	mc0 := make([]int32, m*ldc+1)
	mc1 := make([]int32, m*ldc+1)
	MatchCounts(mc0, ldc, ca, lda, cb, lda, m, n, k)
	naiveMatchCounts(mc1, ldc, ca, lda, cb, lda, m, n, k)
	for i := range mc1 {
		if mc0[i] != mc1[i] {
			t.Fatalf("MatchCounts: element %d diverged: got %d want %d", i, mc0[i], mc1[i])
		}
	}

	// MatchCountsU16 must reproduce the int32 counts exactly on packed rows
	// (contiguous rows, so both packs use stride k). Mix in values near the
	// 16-bit boundary so lane packing is exercised, not just tiny codes.
	da := make([]int32, m*k)
	db := make([]int32, n*k)
	for i := range da {
		da[i] = int32(r.Intn(4)) * 21845 // 0, 21845, 43690, 65535
	}
	for i := range db {
		db[i] = int32(r.Intn(4)) * 21845
	}
	pa := make([]uint64, m*PackedWords(k))
	pb := make([]uint64, n*PackedWords(k))
	if !PackU16Rows(pa, da, m, k) || !PackU16Rows(pb, db, n, k) {
		t.Fatal("PackU16Rows rejected in-range codes")
	}
	pc0 := make([]int32, m*ldc+1)
	pc1 := make([]int32, m*ldc+1)
	MatchCountsU16(pc0, ldc, pa, pb, m, n, k)
	naiveMatchCounts(pc1, ldc, da, k, db, k, m, n, k)
	for i := range pc1 {
		if pc0[i] != pc1[i] {
			t.Fatalf("MatchCountsU16: element %d diverged: got %d want %d", i, pc0[i], pc1[i])
		}
	}

	// The Adam kernel over an m·n block at the A stride's slack offset,
	// alternating folded and run-time 1−β and reaching the c1 == 1 steps.
	checkAdam(t, r, m*n, lda-k, adamCoeffs(seed%2 == 0, 1+int(seed%512)))
}

func TestPackU16RowsRejectsWideCodes(t *testing.T) {
	dst := make([]uint64, PackedWords(3))
	if PackU16Rows(dst, []int32{1, 70000, 2}, 1, 3) {
		t.Fatal("expected rejection of a code above 65535")
	}
	if PackU16Rows(dst, []int32{1, -1, 2}, 1, 3) {
		t.Fatal("expected rejection of a negative code")
	}
}

// TestKernelsMatchNaive sweeps the shapes the learners actually use (odd
// remainders for every unroll width, degenerate empty extents, strides wider
// than the row) and requires bit-identical agreement with the references.
func TestKernelsMatchNaive(t *testing.T) {
	cases := []struct{ m, n, k, lda, ldb, ldc int }{
		{1, 1, 1, 0, 0, 0},
		{2, 4, 8, 0, 0, 0},
		{3, 5, 7, 0, 0, 0},
		{4, 4, 4, 9, 11, 13},
		{5, 3, 2, 2, 3, 3},
		{7, 17, 33, 40, 20, 19},
		{8, 16, 32, 0, 0, 0},
		{1, 4, 0, 1, 1, 4}, // k == 0: pure bias/accumulator pass-through
		{0, 3, 3, 3, 3, 3}, // m == 0: nothing to do
	}
	for i, tc := range cases {
		checkKernels(t, uint64(100+i), tc.m, tc.n, tc.k, tc.lda, tc.ldb, tc.ldc)
	}
}

// FuzzMatEquivalence fuzzes every mat kernel against its naive reference
// (triple loops, the scalar Adam loop), pinning bit-identical outputs across
// random shapes, strides, and value mixes — the CI fuzz smoke runs it
// alongside the codec fuzzers.
func FuzzMatEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(3), uint8(4), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(1), uint8(1), uint8(1), uint8(5), uint8(5), uint8(5))
	f.Add(uint64(9), uint8(16), uint8(8), uint8(4), uint8(2), uint8(1), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, m, n, k, sa, sb, sc uint8) {
		// Bound extents so a fuzz iteration stays tiny; strides are offsets
		// on top of the minimum legal leading dimension.
		mi, ni, ki := int(m%24), int(n%24), int(k%24)
		checkKernels(t, seed, mi, ni, ki, ki+int(sa%5), ni+int(sb%5), ni+int(sc%5))
	})
}
