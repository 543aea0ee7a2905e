package ml

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/relational"
)

// Classifier is the interface every learner implements. Fit trains on a
// dataset; Predict classifies one example given as categorical codes in the
// same feature order the model was trained with.
type Classifier interface {
	Fit(train *Dataset) error
	Predict(row []relational.Value) int8
}

// Named is implemented by classifiers that expose a display name for report
// rows (e.g. "Decision Tree (gini)").
type Named interface {
	Name() string
}

// BatchPredictor is an optional Classifier extension: PredictBatch
// classifies every example of a dataset in one batched pass — typically a
// mat kernel over the dataset's active-index matrix instead of a per-example
// row gather and Predict call. Implementations must return exactly the class
// Predict returns for every example (the evaluation paths treat the two as
// interchangeable), with out[i] the class of example i.
type BatchPredictor interface {
	PredictBatch(ds *Dataset) []int8
}

// Accuracy returns the fraction of examples in ds classified correctly by c.
func Accuracy(c Classifier, ds *Dataset) float64 {
	n := ds.NumExamples()
	if n == 0 {
		return 0
	}
	correct := 0
	for i, cls := range predictAll(c, ds) {
		if cls == ds.Label(i) {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// predictAll classifies every example of ds — the one scoring path behind
// Accuracy, Confuse and CompareClassifiers. Classifiers implementing
// BatchPredictor are scored in one batched pass; for the rest, rows are
// copied into a local buffer before prediction so that classifiers which
// internally iterate the same dataset (1-NN evaluated on its own training
// set) never see their argument clobbered by scratch reuse. The two paths
// yield identical classes, so the choice never changes a result. One
// ScoreSpan observation covers the whole call.
func predictAll(c Classifier, ds *Dataset) []int8 {
	t0 := time.Now()
	defer ScoreSpan.ObserveSince(t0)
	if bp, ok := c.(BatchPredictor); ok {
		return bp.PredictBatch(ds)
	}
	out := make([]int8, ds.NumExamples())
	buf := make([]relational.Value, ds.NumFeatures())
	for i := range out {
		out[i] = c.Predict(ds.RowInto(buf, i))
	}
	return out
}

// Error returns the 0-1 loss of c on ds (1 − Accuracy).
func Error(c Classifier, ds *Dataset) float64 {
	return 1 - Accuracy(c, ds)
}

// Confusion is a 2×2 confusion matrix for binary classification.
type Confusion struct {
	TP, FP, TN, FN int
}

// Confuse evaluates c on ds and tallies the confusion matrix.
func Confuse(c Classifier, ds *Dataset) Confusion {
	var m Confusion
	for i, pred := range predictAll(c, ds) {
		switch truth := ds.Label(i); {
		case pred == 1 && truth == 1:
			m.TP++
		case pred == 1 && truth == 0:
			m.FP++
		case pred == 0 && truth == 0:
			m.TN++
		default:
			m.FN++
		}
	}
	return m
}

// Accuracy returns the accuracy implied by the confusion matrix.
func (m Confusion) Accuracy() float64 {
	total := m.TP + m.FP + m.TN + m.FN
	if total == 0 {
		return 0
	}
	return float64(m.TP+m.TN) / float64(total)
}

// GridPoint is one hyper-parameter assignment: a name → value map.
type GridPoint map[string]float64

// clone copies a grid point.
func (g GridPoint) clone() GridPoint {
	out := make(GridPoint, len(g))
	for k, v := range g {
		out[k] = v
	}
	return out
}

// String renders the point with sorted keys for deterministic logs.
func (g GridPoint) String() string {
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "{"
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%g", k, g[k])
	}
	return s + "}"
}

// Grid enumerates the cross product of per-parameter value axes, exactly the
// "standard grid search" of §3.2.
type Grid struct {
	names []string
	axes  [][]float64
}

// NewGrid returns an empty grid (a single empty point).
func NewGrid() *Grid { return &Grid{} }

// Axis appends a parameter axis and returns the grid for chaining.
func (g *Grid) Axis(name string, values ...float64) *Grid {
	g.names = append(g.names, name)
	g.axes = append(g.axes, append([]float64(nil), values...))
	return g
}

// Points enumerates every point in the cross product, in deterministic
// lexicographic order of the axes as added.
func (g *Grid) Points() []GridPoint {
	points := []GridPoint{{}}
	for ai, name := range g.names {
		var next []GridPoint
		for _, p := range points {
			for _, v := range g.axes[ai] {
				q := p.clone()
				q[name] = v
				next = append(next, q)
			}
		}
		points = next
	}
	return points
}

// Factory constructs a classifier for a grid point.
type Factory func(GridPoint) (Classifier, error)

// TuneResult reports a completed grid search.
type TuneResult struct {
	Best        Classifier
	BestPoint   GridPoint
	BestValAcc  float64
	PointsTried int
}

// GridSearch trains a classifier at every grid point on train, evaluates on
// validation accuracy, and refits nothing: the best already-fitted model is
// returned (the paper tunes on the validation split and reports holdout test
// accuracy of the tuned model). Ties keep the earlier point, making results
// deterministic.
//
// Grid points are fitted and evaluated on a worker pool (see
// MaxParallelism): classifiers are constructed sequentially — factories need
// not be safe for concurrent calls — then each worker fits on its own
// Dataset handle and the winner is reduced online (max accuracy, earliest
// grid index on ties), so the result is bit-identical to a sequential run.
// View-backed datasets make the per-worker handles free.
func GridSearch(grid *Grid, factory Factory, train, validation *Dataset) (TuneResult, error) {
	points := grid.Points()
	if len(points) == 0 {
		return TuneResult{}, fmt.Errorf("ml: empty grid")
	}
	models := make([]Classifier, len(points))
	for i, p := range points {
		c, err := factory(p)
		if err != nil {
			return TuneResult{}, fmt.Errorf("ml: grid point %v: %w", p, err)
		}
		models[i] = c
	}
	// Online winner reduction: losers become garbage as soon as they are
	// judged, so at most workers+1 fitted models are live at once. Per-point
	// accuracies are deterministic, so "max accuracy, earliest grid index on
	// ties" selects the same winner as the historical sequential loop
	// regardless of completion order.
	var mu sync.Mutex
	res := TuneResult{BestValAcc: -1}
	bestIdx := -1
	errs := make([]error, len(points))
	parallelFor(len(points), func(i int) {
		c := models[i]
		models[i] = nil
		if err := c.Fit(train.Handle()); err != nil {
			errs[i] = fmt.Errorf("ml: fit at %v: %w", points[i], err)
			return
		}
		acc := Accuracy(c, validation.Handle())
		mu.Lock()
		if acc > res.BestValAcc || (acc == res.BestValAcc && i < bestIdx) {
			res.Best = c
			res.BestPoint = points[i]
			res.BestValAcc = acc
			bestIdx = i
		}
		mu.Unlock()
	})
	for _, err := range errs {
		if err != nil {
			return TuneResult{}, err
		}
	}
	res.PointsTried = len(points)
	return res, nil
}

// ConstantClassifier predicts a fixed class; the baseline for sanity checks
// and the fallback for degenerate training sets.
type ConstantClassifier struct{ Class int8 }

// Fit sets the class to the training majority.
func (c *ConstantClassifier) Fit(train *Dataset) error {
	c.Class = train.MajorityClass()
	return nil
}

// Predict returns the fixed class.
func (c *ConstantClassifier) Predict([]relational.Value) int8 { return c.Class }

// ExportLinear implements LinearExporter: a constant model is the degenerate
// linear model with zero weights and a bias carrying the class sign.
func (c *ConstantClassifier) ExportLinear(features []Feature) (float64, []float64, bool) {
	bias := -1.0
	if c.Class == 1 {
		bias = 1
	}
	return bias, make([]float64, NewEncoder(features).Dims), true
}

// Name implements Named.
func (c *ConstantClassifier) Name() string { return "Majority" }
