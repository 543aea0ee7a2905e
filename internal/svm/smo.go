package svm

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

// Config holds the SVM hyper-parameters matching the paper's grid:
// C ∈ {0.1, 1, 10, 100, 1000}, γ ∈ {1e-4 … 10}.
type Config struct {
	Kernel KernelKind
	C      float64
	Gamma  float64
	// Tol is the KKT violation tolerance (default 1e-3, as in Platt's SMO
	// and libsvm).
	Tol float64
	// MaxPasses bounds the number of full passes without any multiplier
	// change before convergence is declared (default 5).
	MaxPasses int
	// MaxIter caps total SMO iterations as a safety valve (default 200 *
	// number of examples).
	MaxIter int
	// SubsampleCap, when positive, limits the training set to at most this
	// many examples via a seeded uniform subsample. SMO has quadratic cost,
	// and the paper's comparisons are within-dataset, so the cap applies
	// identically to JoinAll and NoJoin.
	SubsampleCap int
	// Seed drives SMO's second-multiplier randomization and subsampling.
	Seed uint64
}

// gramCacheCap bounds the training-set size for which Fit materializes the
// full n×n Gram cache (n² float32 ≈ 64 MiB at the cap); beyond it SMO
// falls back to on-demand kernel evaluation. A variable so tests can
// exercise the cacheless branch at small n.
var gramCacheCap = 4096

// SVM is a kernel support vector classifier. Construct with New, then Fit.
type SVM struct {
	cfg    Config
	kernel *Kernel

	// Support set after training: rows (categorical codes), labels (±1),
	// multipliers, and bias.
	svRows   [][]relational.Value
	svAlphaY []float64
	b        float64
}

// New returns an unfitted SVM.
func New(cfg Config) (*SVM, error) {
	if cfg.C <= 0 {
		return nil, fmt.Errorf("svm: C must be positive, got %v", cfg.C)
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-3
	}
	if cfg.MaxPasses <= 0 {
		cfg.MaxPasses = 5
	}
	return &SVM{cfg: cfg}, nil
}

// Name implements ml.Named.
func (s *SVM) Name() string { return "SVM(" + s.cfg.Kernel.String() + ")" }

// Fit trains the SVM with sequential minimal optimization.
func (s *SVM) Fit(train *ml.Dataset) error {
	if train.NumExamples() == 0 {
		return fmt.Errorf("svm: empty training set")
	}
	r := rng.New(s.cfg.Seed)

	// Optional subsample for tractability on large datasets.
	ds := train
	if s.cfg.SubsampleCap > 0 && train.NumExamples() > s.cfg.SubsampleCap {
		perm := r.Perm(train.NumExamples())
		ds = train.Subset(perm[:s.cfg.SubsampleCap])
	}
	n := ds.NumExamples()
	d := ds.NumFeatures()

	// Pin every training row once — the kernel loops read two rows at a
	// time and the support set must outlive Fit. Every feature is pulled in
	// one batched column scan scattered straight into the row-major block
	// (ml.ScanRowMajor; under a subsample view the scan bottoms out in the
	// relation's column gather), replacing n×d single-cell view accesses
	// with d sequential scans — and the block then feeds the Gram build's
	// blocked match-count kernel directly. The cells are those the
	// historical per-row pinning copied, so the model is bit-identical to it
	// (the tests keep it as an oracle).
	block, labels := ml.ScanRowMajor(ds)
	rows := make([][]relational.Value, n)
	for i := range rows {
		rows[i] = block[i*d : (i+1)*d : (i+1)*d]
	}

	k, err := NewKernel(s.cfg.Kernel, s.cfg.Gamma, d)
	if err != nil {
		return err
	}
	s.kernel = k

	y := make([]float64, n)
	allSame := true
	for i := 0; i < n; i++ {
		if labels[i] == 1 {
			y[i] = 1
		} else {
			y[i] = -1
		}
		if i > 0 && y[i] != y[0] {
			allSame = false
		}
	}
	if allSame {
		// Degenerate: decision is a constant at the lone class.
		s.svRows = nil
		s.svAlphaY = nil
		s.b = y[0]
		return nil
	}

	// Cache kernel rows lazily? For the paper's scales (n ≤ a few thousand
	// after capping) a full n×n cache is affordable and much faster. The
	// build is a blocked X·Xᵀ over the pinned row-major block
	// (mat.MatchCounts per i-block, kernel values from a match-count lookup
	// table, i-blocks fanned across ml.ParallelFor with disjoint writes);
	// GramBlocked documents why it is bit-identical to the per-pair
	// GramRows build.
	var kcache []float32
	if n <= gramCacheCap {
		kcache = make([]float32, n*n)
		t0 := time.Now()
		k.GramBlocked(kcache, block, n)
		gramSpan.ObserveSince(t0)
	}
	s.optimize(r, rows, y, kcache)
	return nil
}

// optimize runs SMO over the pinned rows and their ±1 labels, reading
// kernel values from kcache when Fit built one (nil beyond gramCacheCap),
// and retains the support set. r continues the stream Fit drew its
// subsample from.
func (s *SVM) optimize(r *rng.RNG, rows [][]relational.Value, y []float64, kcache []float32) {
	n := len(rows)
	k := s.kernel
	alpha := make([]float64, n)
	b := 0.0
	C := s.cfg.C
	tol := s.cfg.Tol
	maxIter := s.cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 200 * n
	}
	kij := func(i, j int) float64 {
		if kcache != nil {
			return float64(kcache[i*n+j])
		}
		if i == j {
			return k.Self()
		}
		return k.Eval(rows[i], rows[j])
	}

	// ay[j] caches α_j·y_j for f's hot loop, and activeMask tracks the
	// active set as a bitmap (bit j ⟺ α_j > 0). Each ay entry is refreshed
	// from the same two operands the historical `alpha[j] * y[j]` recomputed
	// per term, so every product f folds carries identical bits. A pair step
	// can round α_i a few ulps below zero (ai + s·(aj − ajNew) when ajNew
	// lands on its bound); such a multiplier is inactive, as the retained
	// support set treats it.
	ay := make([]float64, n)
	activeMask := make([]uint64, (n+63)/64)
	setActive := func(j int, on bool) {
		if on {
			activeMask[j>>6] |= 1 << (j & 63)
		} else {
			activeMask[j>>6] &^= 1 << (j & 63)
		}
	}

	// f(i) = Σ_j α_j y_j k(i,j) + b — the read every SMO iteration pays.
	// With the cache present it walks the active bitmap (TrailingZeros
	// yields ascending j, so the fold order is the historical one) against
	// the raw float32 cache row: a sweep early in training, when almost
	// every α is zero, costs n/64 word loads instead of n load-and-tests.
	// Without the cache, the fold runs over the same active set in the same
	// ascending order, reading kernel values from kij.
	f := func(i int) float64 {
		sum := 0.0
		if kcache != nil {
			krow := kcache[i*n : (i+1)*n]
			for wi, word := range activeMask {
				base := wi << 6
				for word != 0 {
					j := base + bits.TrailingZeros64(word)
					word &= word - 1
					sum += ay[j] * float64(krow[j])
				}
			}
		} else {
			for j := 0; j < n; j++ {
				if alpha[j] > 0 {
					sum += alpha[j] * y[j] * kij(i, j)
				}
			}
		}
		return sum + b
	}

	passes, iter := 0, 0
	for passes < s.cfg.MaxPasses && iter < maxIter {
		passT0 := time.Now()
		changed := 0
		for i := 0; i < n && iter < maxIter; i++ {
			iter++
			Ei := f(i) - y[i]
			if !((y[i]*Ei < -tol && alpha[i] < C) || (y[i]*Ei > tol && alpha[i] > 0)) {
				continue
			}
			// Pick j != i at random (simplified SMO's second choice).
			j := r.Intn(n - 1)
			if j >= i {
				j++
			}
			Ej := f(j) - y[j]
			ai, aj := alpha[i], alpha[j]
			var L, H float64
			if y[i] != y[j] {
				L = max(0, aj-ai)
				H = min(C, C+aj-ai)
			} else {
				L = max(0, ai+aj-C)
				H = min(C, ai+aj)
			}
			if L == H {
				continue
			}
			eta := 2*kij(i, j) - kij(i, i) - kij(j, j)
			if eta >= 0 {
				continue
			}
			ajNew := aj - y[j]*(Ei-Ej)/eta
			if ajNew > H {
				ajNew = H
			} else if ajNew < L {
				ajNew = L
			}
			if math.Abs(ajNew-aj) < 1e-7 {
				continue
			}
			aiNew := ai + y[i]*y[j]*(aj-ajNew)
			b1 := b - Ei - y[i]*(aiNew-ai)*kij(i, i) - y[j]*(ajNew-aj)*kij(i, j)
			b2 := b - Ej - y[i]*(aiNew-ai)*kij(i, j) - y[j]*(ajNew-aj)*kij(j, j)
			switch {
			case aiNew > 0 && aiNew < C:
				b = b1
			case ajNew > 0 && ajNew < C:
				b = b2
			default:
				b = (b1 + b2) / 2
			}
			alpha[i], alpha[j] = aiNew, ajNew
			ay[i], ay[j] = aiNew*y[i], ajNew*y[j]
			setActive(i, aiNew > 0)
			setActive(j, ajNew > 0)
			changed++
		}
		smoPassSpan.ObserveSince(passT0)
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	// Retain the rows with nonzero multipliers as the fitted support set.
	s.svRows = s.svRows[:0]
	s.svAlphaY = s.svAlphaY[:0]
	for i := range rows {
		if alpha[i] > 0 {
			s.svRows = append(s.svRows, rows[i])
			s.svAlphaY = append(s.svAlphaY, alpha[i]*y[i])
		}
	}
	s.b = b
}

// Decision returns the signed decision value Σ αᵢyᵢ k(xᵢ, x) + b.
func (s *SVM) Decision(row []relational.Value) float64 {
	sum := s.b
	for i, sv := range s.svRows {
		sum += s.svAlphaY[i] * s.kernel.Eval(sv, row)
	}
	return sum
}

// Predict classifies one example.
func (s *SVM) Predict(row []relational.Value) int8 {
	if s.kernel == nil {
		// Degenerate single-class fit stored the class sign in b.
		if s.b >= 0 {
			return 1
		}
		return 0
	}
	if s.Decision(row) >= 0 {
		return 1
	}
	return 0
}

// predictBlockRows is the row extent of one PredictBatch task: its match
// counts against a support set at the 400-row default cap fit in 64 KiB.
const predictBlockRows = 64

// PredictBatch implements ml.BatchPredictor: the dataset is scanned once
// into a row-major block (ml.ScanRowMajor), row blocks fan out across
// ml.ParallelFor, and each block's match counts against the whole support
// set come from one blocked match-count call. Each decision folds b first,
// then αᵢyᵢ·k for the support vectors in retention order with k read from
// matchLUT — Decision's exact fold over the same kernel values, so every
// class equals Predict's bit for bit.
func (s *SVM) PredictBatch(ds *ml.Dataset) []int8 {
	n := ds.NumExamples()
	out := make([]int8, n)
	nsv := len(s.svRows)
	if s.kernel == nil || nsv == 0 {
		// Degenerate single-class fit: the decision is the constant b.
		if s.b >= 0 {
			for i := range out {
				out[i] = 1
			}
		}
		return out
	}
	d := s.kernel.dims
	block, _ := ml.ScanRowMajor(ds)
	svBlock := make([]relational.Value, 0, nsv*d)
	for _, sv := range s.svRows {
		svBlock = append(svBlock, sv...)
	}
	sv := newMatchBlock(svBlock, nsv, d)
	rows := newMatchBlock(block, n, d)
	lut := s.kernel.matchLUT()
	blocks := (n + predictBlockRows - 1) / predictBlockRows
	ml.ParallelFor(blocks, func(bi int) {
		i0 := bi * predictBlockRows
		i1 := min(i0+predictBlockRows, n)
		cnt := make([]int32, (i1-i0)*nsv)
		matchCounts(cnt, nsv, rows, i0, i1, sv, 0, nsv)
		for i := i0; i < i1; i++ {
			sum := s.b
			for j, m := range cnt[(i-i0)*nsv : (i-i0+1)*nsv] {
				sum += s.svAlphaY[j] * lut[m]
			}
			if sum >= 0 {
				out[i] = 1
			}
		}
	})
	return out
}

// NumSupportVectors returns the size of the retained support set.
func (s *SVM) NumSupportVectors() int { return len(s.svRows) }
