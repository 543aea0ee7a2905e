package ml

import (
	"math"

	"repro/internal/relational"
)

// This file measures how far two fitted classifiers diverge on a held-out
// split. Every training path in the repository is held to bit-identity with
// a test-only oracle; CompareClassifiers answers the weaker question an
// accuracy gate asks — do two models, trained differently, reach the same
// held-out quality? — through accuracy, prediction-disagreement and
// log-loss deltas.

// Prober is an optional Classifier extension exposing the positive-class
// probability; when both sides of a comparison implement it, the harness
// also reports a held-out log-loss delta.
type Prober interface {
	Probability(row []relational.Value) float64
}

// EquivDelta is one measured reference/approximate divergence.
type EquivDelta struct {
	RefAcc, ApproxAcc float64
	// Disagreement is the fraction of holdout examples classified
	// differently by the two models.
	Disagreement float64
	// RefLoss/ApproxLoss are mean log-losses, valid only when HasLoss (both
	// classifiers implement Prober).
	RefLoss, ApproxLoss float64
	HasLoss             bool
}

// AccDelta returns |RefAcc − ApproxAcc|.
func (d EquivDelta) AccDelta() float64 { return math.Abs(d.RefAcc - d.ApproxAcc) }

// LossDelta returns |RefLoss − ApproxLoss| (0 when losses were not
// measured).
func (d EquivDelta) LossDelta() float64 {
	if !d.HasLoss {
		return 0
	}
	return math.Abs(d.RefLoss - d.ApproxLoss)
}

// logLoss is the mean cross-entropy of p's probabilities against the
// labels, with the probabilities clamped away from {0, 1} so one saturated
// wrong answer cannot dominate the mean.
func logLoss(p Prober, ds *Dataset) float64 {
	const clamp = 1e-12
	n := ds.NumExamples()
	if n == 0 {
		return 0
	}
	buf := make([]relational.Value, ds.NumFeatures())
	sum := 0.0
	for i := 0; i < n; i++ {
		pr := p.Probability(ds.RowInto(buf, i))
		if pr < clamp {
			pr = clamp
		} else if pr > 1-clamp {
			pr = 1 - clamp
		}
		if ds.Label(i) == 1 {
			sum -= math.Log(pr)
		} else {
			sum -= math.Log(1 - pr)
		}
	}
	return sum / float64(n)
}

// CompareClassifiers scores two fitted classifiers on the same holdout
// dataset and returns their divergence: per-side accuracy, the example-wise
// disagreement rate, and (when both expose probabilities) mean log-losses.
// Both classifiers must already be fitted.
func CompareClassifiers(ref, approx Classifier, holdout *Dataset) EquivDelta {
	n := holdout.NumExamples()
	pr := predictAll(ref, holdout)
	pa := predictAll(approx, holdout)
	var refHit, approxHit, differ int
	for i := 0; i < n; i++ {
		truth := holdout.Label(i)
		if pr[i] == truth {
			refHit++
		}
		if pa[i] == truth {
			approxHit++
		}
		if pr[i] != pa[i] {
			differ++
		}
	}
	d := EquivDelta{}
	if n > 0 {
		d.RefAcc = float64(refHit) / float64(n)
		d.ApproxAcc = float64(approxHit) / float64(n)
		d.Disagreement = float64(differ) / float64(n)
	}
	rp, rok := ref.(Prober)
	ap, aok := approx.(Prober)
	if rok && aok {
		d.RefLoss = logLoss(rp, holdout)
		d.ApproxLoss = logLoss(ap, holdout)
		d.HasLoss = true
	}
	return d
}
