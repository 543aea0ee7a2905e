package nb

import (
	"math"
	"sort"
	"time"

	"repro/internal/ml"
)

// ForwardSelect fits Naive Bayes and greedily *activates* features: starting
// from the empty set, each round adds the feature whose inclusion most
// improves validation accuracy, stopping when no addition helps. The paper
// also evaluated Naive Bayes with forward selection (§3, "did not provide
// any new insights" — we include it for completeness and for the runtime
// contrast with backward selection: forward selection touches fewer features
// per round when few features matter).
func ForwardSelect(cfg Config, train, validation *ml.Dataset) (*NaiveBayes, float64, error) {
	model, err := fitForSelection(cfg, train, validation)
	if err != nil {
		return nil, 0, err
	}
	for j := range model.active {
		model.SetActive(j, false)
	}
	// With no active features the model is the prior; the first round
	// scores each feature against it.
	cols := model.scoreColumns(validation)
	best := greedySelect(model, cols, false)
	if len(model.ActiveFeatures()) > 0 {
		return model, best, nil
	}
	// Never return a feature-less model: fall back to the single best
	// feature (the first, on ties) if nothing improved on the prior.
	t0 := time.Now()
	all := make([]int, len(model.active))
	for j := range all {
		all[j] = j
	}
	bestJ, bestAcc := 0, -1.0
	for j, acc := range cols.toggled(model.active, all) {
		if acc > bestAcc {
			bestJ, bestAcc = j, acc
		}
	}
	ml.ScoreSpan.ObserveSince(t0)
	model.SetActive(bestJ, true)
	return model, bestAcc, nil
}

// MutualInformation estimates I(X_j; Y) in bits from a dataset — the filter
// score used by FilterSelect.
func MutualInformation(ds *ml.Dataset, j int) float64 {
	n := ds.NumExamples()
	if n == 0 {
		return 0
	}
	card := ds.Features[j].Cardinality
	joint := make([][2]float64, card)
	var py [2]float64
	for i := 0; i < n; i++ {
		v := ds.At(i, j)
		y := ds.Label(i)
		joint[v][y]++
		py[y]++
	}
	mi := 0.0
	fn := float64(n)
	for v := 0; v < card; v++ {
		pv := (joint[v][0] + joint[v][1]) / fn
		if pv == 0 {
			continue
		}
		for y := 0; y < 2; y++ {
			pvy := joint[v][y] / fn
			if pvy == 0 {
				continue
			}
			mi += pvy * math.Log2(pvy/(pv*py[y]/fn))
		}
	}
	if mi < 0 {
		mi = 0 // guard tiny negative float residue
	}
	return mi
}

// FilterSelect keeps the k features with the highest mutual information
// with the target (computed on the training split only) and fits Naive
// Bayes on them — the filter-method variant the paper also ran. k is
// clamped to [1, d].
func FilterSelect(cfg Config, train, validation *ml.Dataset, k int) (*NaiveBayes, float64, error) {
	model, err := fitForSelection(cfg, train, validation)
	if err != nil {
		return nil, 0, err
	}
	d := train.NumFeatures()
	if k < 1 {
		k = 1
	}
	if k > d {
		k = d
	}
	type scored struct {
		j  int
		mi float64
	}
	ss := make([]scored, d)
	for j := 0; j < d; j++ {
		ss[j] = scored{j: j, mi: MutualInformation(train, j)}
	}
	sort.Slice(ss, func(a, b int) bool {
		if ss[a].mi != ss[b].mi {
			return ss[a].mi > ss[b].mi
		}
		return ss[a].j < ss[b].j
	})
	for j := 0; j < d; j++ {
		model.SetActive(j, false)
	}
	for _, s := range ss[:k] {
		model.SetActive(s.j, true)
	}
	return model, ml.Accuracy(model, validation), nil
}
