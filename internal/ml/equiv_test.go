package ml

import (
	"math"
	"testing"

	"repro/internal/relational"
)

// tableClassifier predicts from a fixed lookup over feature 0 — a stub with
// controllable predictions (and optional probabilities) for harness tests.
type tableClassifier struct {
	byCode []int8
	probs  []float64 // optional; enables the Prober extension via probed
}

func (c *tableClassifier) Fit(*Dataset) error { return nil }
func (c *tableClassifier) Predict(row []relational.Value) int8 {
	return c.byCode[int(row[0])]
}

type probedTable struct{ tableClassifier }

func (c *probedTable) Probability(row []relational.Value) float64 {
	return c.probs[int(row[0])]
}

// equivDataset has one feature with four codes, one example each, labels
// 0,0,1,1 — so table stubs can dial in any accuracy/disagreement pattern.
func equivDataset() *Dataset {
	return &Dataset{
		Features: []Feature{{Name: "a", Cardinality: 4}},
		X:        []relational.Value{0, 1, 2, 3},
		Y:        []int8{0, 0, 1, 1},
	}
}

func TestCompareClassifiersDeltas(t *testing.T) {
	ds := equivDataset()
	ref := &tableClassifier{byCode: []int8{0, 0, 1, 1}}    // 4/4 correct
	approx := &tableClassifier{byCode: []int8{0, 1, 0, 1}} // 2/4 correct, differs on 2
	d := CompareClassifiers(ref, approx, ds)
	if d.RefAcc != 1 || d.ApproxAcc != 0.5 {
		t.Fatalf("accuracies = %v/%v, want 1/0.5", d.RefAcc, d.ApproxAcc)
	}
	if d.AccDelta() != 0.5 || d.Disagreement != 0.5 {
		t.Fatalf("delta %v disagreement %v, want 0.5/0.5", d.AccDelta(), d.Disagreement)
	}
	if d.HasLoss {
		t.Fatal("plain stubs expose no probabilities; HasLoss must be false")
	}
}

func TestCompareClassifiersDisagreementCatchesCancellation(t *testing.T) {
	// Both models score 2/4, but on disjoint examples: the accuracy delta
	// is 0 while every holdout example flips class — exactly the failure mode
	// the disagreement bound exists for.
	ds := equivDataset()
	ref := &tableClassifier{byCode: []int8{0, 1, 1, 0}}
	approx := &tableClassifier{byCode: []int8{1, 0, 0, 1}}
	d := CompareClassifiers(ref, approx, ds)
	if d.AccDelta() != 0 {
		t.Fatalf("acc delta = %v, want 0", d.AccDelta())
	}
	if d.Disagreement != 1 {
		t.Fatalf("disagreement = %v, want 1", d.Disagreement)
	}
}

func TestCompareClassifiersLogLoss(t *testing.T) {
	ds := equivDataset()
	ref := &probedTable{tableClassifier{byCode: []int8{0, 0, 1, 1}}}
	ref.probs = []float64{0.1, 0.1, 0.9, 0.9}
	approx := &probedTable{tableClassifier{byCode: []int8{0, 0, 1, 1}}}
	approx.probs = []float64{0.2, 0.2, 0.8, 0.8}
	d := CompareClassifiers(ref, approx, ds)
	if !d.HasLoss {
		t.Fatal("both sides implement Prober; losses must be measured")
	}
	wantRef := -math.Log(0.9)
	wantApprox := -math.Log(0.8)
	if math.Abs(d.RefLoss-wantRef) > 1e-12 || math.Abs(d.ApproxLoss-wantApprox) > 1e-12 {
		t.Fatalf("losses = %v/%v, want %v/%v", d.RefLoss, d.ApproxLoss, wantRef, wantApprox)
	}
	if got, want := d.LossDelta(), wantApprox-wantRef; math.Abs(got-want) > 1e-12 {
		t.Fatalf("loss delta = %v, want %v", got, want)
	}
}
