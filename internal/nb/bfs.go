package nb

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ml"
)

// BackwardSelect fits Naive Bayes on train and greedily deactivates
// features: at each round it tentatively drops each remaining feature,
// keeps the drop that most improves validation accuracy, and stops when no
// single drop improves it. The fitted model with its final active set is
// returned along with the validation accuracy achieved.
//
// The conditional tables are fitted once; dropping a feature under Naive
// Bayes just omits its likelihood term, so the wrapper's cost is entirely
// validation scoring — rounds × candidates × |validation| × |active| table
// additions, the cost profile that makes the Figure 1 NB runtimes so
// sensitive to avoiding joins. The validation split is scanned once into
// per-feature contribution columns (scoreColumns), so every candidate is a
// tight fold over dense float64 columns rather than a row gather per
// example; candidates of one round are scored in parallel.
func BackwardSelect(cfg Config, train, validation *ml.Dataset) (*NaiveBayes, float64, error) {
	model, err := fitForSelection(cfg, train, validation)
	if err != nil {
		return nil, 0, err
	}
	return model, greedySelect(model, model.scoreColumns(validation), true), nil
}

// fitForSelection validates the splits and fits the model every selection
// wrapper starts from.
func fitForSelection(cfg Config, train, validation *ml.Dataset) (*NaiveBayes, error) {
	if validation.NumExamples() == 0 {
		return nil, fmt.Errorf("nb: empty validation set")
	}
	model := New(cfg)
	if err := model.Fit(train); err != nil {
		return nil, err
	}
	return model, nil
}

// greedySelect runs the greedy wrapper over model's active set, scoring
// against the validation columns cols, and returns the final validation
// accuracy. Backward rounds try dropping each active feature (never the
// last one); forward rounds try adding each inactive one. A round keeps its
// best candidate — the first in feature order to beat the running best by
// more than 1e-12 — and the search stops when no candidate does.
func greedySelect(model *NaiveBayes, cols *scoreColumns, backward bool) float64 {
	t0 := time.Now()
	best := cols.accuracy(model.ActiveFeatures())
	ml.ScoreSpan.ObserveSince(t0)
	for {
		t0 = time.Now()
		var cands []int
		for j, on := range model.active {
			if on == backward {
				cands = append(cands, j)
			}
		}
		if backward && len(cands) == 1 {
			cands = nil // never drop the last feature
		}
		pick, acc := -1, best
		for c, a := range cols.toggled(model.active, cands) {
			if a > acc+1e-12 {
				pick, acc = cands[c], a
			}
		}
		ml.ScoreSpan.ObserveSince(t0)
		if pick < 0 {
			return best
		}
		model.SetActive(pick, !backward)
		best = acc
	}
}

// scoreColumns is an evaluation split scanned once into per-feature
// contribution columns: c0[j][i] and c1[j][i] are the log-likelihood terms
// example i's value of feature j adds to the class-0 and class-1 scores
// (16 bytes per cell). Because the log-posterior is a sum of per-feature
// terms, any feature subset is scored by folding its columns.
type scoreColumns struct {
	prior  [2]float64
	c0, c1 [][]float64
	labels []int8
}

// scoreColumns scans ds once (one ScanActiveIndices pass) into contribution
// columns under the model's fitted tables.
func (nb *NaiveBayes) scoreColumns(ds *ml.Dataset) *scoreColumns {
	n, d := ds.NumExamples(), ds.NumFeatures()
	idx, labels := ml.ScanActiveIndices(ds, nb.enc)
	s := &scoreColumns{prior: nb.logPrior, c0: make([][]float64, d), c1: make([][]float64, d), labels: labels}
	slab := make([]float64, 2*n*d)
	ml.ParallelFor(d, func(j int) {
		c0, c1 := slab[2*j*n:(2*j+1)*n], slab[(2*j+1)*n:(2*j+2)*n]
		for i := range c0 {
			k := idx[i*d+j]
			c0[i], c1[i] = nb.logLik[k*2], nb.logLik[k*2+1]
		}
		s.c0[j], s.c1[j] = c0, c1
	})
	return s
}

// foldBlock is the row extent of one accuracy fold: both running score
// vectors (2 × 4 KiB) stay in L1 while every kept column streams past.
const foldBlock = 512

// accuracy scores the feature subset feats (ascending) and returns the
// fraction of examples classified correctly. Each example's scores start
// from the log prior and add the kept features' terms in ascending feature
// order — exactly Predict's fold, so every class matches it bit for bit.
// Subtracting one column from a full-set sum would be O(n) per candidate
// but rounds differently from this left-to-right sum, and can flip a
// near-tie prediction, so the kept columns are always folded afresh.
func (s *scoreColumns) accuracy(feats []int) float64 {
	n := len(s.labels)
	var buf0, buf1 [foldBlock]float64
	correct := 0
	for lo := 0; lo < n; lo += foldBlock {
		hi := min(lo+foldBlock, n)
		s0, s1 := buf0[:hi-lo], buf1[:hi-lo]
		for i := range s0 {
			s0[i], s1[i] = s.prior[0], s.prior[1]
		}
		for _, j := range feats {
			c0, c1 := s.c0[j][lo:hi], s.c1[j][lo:hi]
			for i := range s0 {
				s0[i] += c0[i]
				s1[i] += c1[i]
			}
		}
		for i, y := range s.labels[lo:hi] {
			if (s1[i] >= s0[i]) == (y == 1) {
				correct++
			}
		}
	}
	return float64(correct) / float64(n)
}

// toggled scores one candidate per entry of cands — the active set with
// that feature's flag flipped — fanning candidates across ml.ParallelFor
// into one accuracy slot each, so the caller reduces them in order.
func (s *scoreColumns) toggled(active []bool, cands []int) []float64 {
	accs := make([]float64, len(cands))
	ml.ParallelFor(len(cands), func(c int) {
		feats := make([]int, 0, len(active))
		for j, on := range active {
			if on != (j == cands[c]) {
				feats = append(feats, j)
			}
		}
		accs[c] = s.accuracy(feats)
	})
	return accs
}

// ln is a tiny indirection so nb.go needn't import math directly in call
// sites (kept for readability of the likelihood code).
func ln(x float64) float64 { return math.Log(x) }
