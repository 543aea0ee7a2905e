package nb

import (
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

func feats(cards ...int) []ml.Feature {
	out := make([]ml.Feature, len(cards))
	for i, c := range cards {
		out[i] = ml.Feature{Name: "f", Cardinality: c}
	}
	return out
}

func TestFitRejectsEmpty(t *testing.T) {
	if err := New(Config{}).Fit(&ml.Dataset{Features: feats(2)}); err == nil {
		t.Fatal("expected error")
	}
}

func TestLearnsConditionalSignal(t *testing.T) {
	ds := &ml.Dataset{Features: feats(2, 3)}
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		x0 := relational.Value(r.Intn(2))
		y := int8(x0)
		if r.Bernoulli(0.1) {
			y = 1 - y
		}
		ds.X = append(ds.X, x0, relational.Value(r.Intn(3)))
		ds.Y = append(ds.Y, y)
	}
	m := New(Config{})
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(m, ds); acc < 0.85 {
		t.Fatalf("accuracy %v, want >= 0.85", acc)
	}
}

func TestLaplaceSmoothingHandlesUnseenValue(t *testing.T) {
	// Value 2 of feature 0 never appears in training; prediction must not
	// blow up (no -Inf) and should follow the prior.
	ds := &ml.Dataset{
		Features: feats(3),
		X:        []relational.Value{0, 0, 1, 1, 1},
		Y:        []int8{0, 0, 1, 1, 1},
	}
	m := New(Config{Alpha: 1})
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	got := m.Predict([]relational.Value{2})
	if got != 1 {
		t.Fatalf("unseen value should fall back to prior-dominant class 1, got %d", got)
	}
}

func TestPosteriorMatchesHandComputation(t *testing.T) {
	// 4 examples, 1 binary feature; verify the smoothed posterior decision
	// boundary against hand-computed values.
	ds := &ml.Dataset{
		Features: feats(2),
		X:        []relational.Value{0, 0, 1, 1},
		Y:        []int8{0, 0, 1, 1},
	}
	m := New(Config{Alpha: 1})
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	// P(Y=0)=P(Y=1)=0.5; P(x=0|Y=0) = (2+1)/(2+2) = 0.75;
	// P(x=0|Y=1) = (0+1)/(2+2) = 0.25. So x=0 → class 0, x=1 → class 1.
	if m.Predict([]relational.Value{0}) != 0 || m.Predict([]relational.Value{1}) != 1 {
		t.Fatal("hand-computed posterior decision violated")
	}
}

func TestSetActiveSuppressesFeature(t *testing.T) {
	// Feature 0 predicts perfectly; feature 1 carries a weaker opposite
	// association on the input we probe. Deactivating the dominant feature
	// must flip the prediction for {0, 0}.
	ds := &ml.Dataset{
		Features: feats(2, 2),
		X: []relational.Value{
			0, 1,
			0, 1,
			0, 1,
			0, 0,
			1, 0,
			1, 0,
			1, 0,
			1, 1,
		},
		Y: []int8{0, 0, 0, 0, 1, 1, 1, 1},
	}
	m := New(Config{})
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	before := m.Predict([]relational.Value{0, 0})
	m.SetActive(0, false)
	after := m.Predict([]relational.Value{0, 0})
	if before == after {
		t.Fatal("deactivating the dominant feature should flip the prediction")
	}
	if got := m.ActiveFeatures(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("ActiveFeatures = %v", got)
	}
}

func TestBackwardSelectDropsNoise(t *testing.T) {
	// Build train/validation where feature 0 is pure signal and features
	// 1..4 are noise that hurts validation slightly; BFS should keep
	// accuracy at least at the all-features level and typically drop noise.
	r := rng.New(5)
	gen := func(n int, rr *rng.RNG) *ml.Dataset {
		ds := &ml.Dataset{Features: feats(2, 8, 8, 8, 8)}
		for i := 0; i < n; i++ {
			x0 := relational.Value(rr.Intn(2))
			y := int8(x0)
			if rr.Bernoulli(0.05) {
				y = 1 - y
			}
			ds.X = append(ds.X, x0,
				relational.Value(rr.Intn(8)), relational.Value(rr.Intn(8)),
				relational.Value(rr.Intn(8)), relational.Value(rr.Intn(8)))
			ds.Y = append(ds.Y, y)
		}
		return ds
	}
	train := gen(400, r)
	val := gen(200, r)
	m, valAcc, err := BackwardSelect(Config{}, train, val)
	if err != nil {
		t.Fatal(err)
	}
	full := New(Config{})
	if err := full.Fit(train); err != nil {
		t.Fatal(err)
	}
	if fullAcc := ml.Accuracy(full, val); valAcc < fullAcc {
		t.Fatalf("BFS validation accuracy %v must be >= full-model %v", valAcc, fullAcc)
	}
	// Signal feature must survive.
	kept := m.ActiveFeatures()
	has0 := false
	for _, j := range kept {
		if j == 0 {
			has0 = true
		}
	}
	if !has0 {
		t.Fatalf("BFS dropped the signal feature; kept %v", kept)
	}
}

func TestBackwardSelectNeverDropsLastFeature(t *testing.T) {
	ds := &ml.Dataset{
		Features: feats(2),
		X:        []relational.Value{0, 1, 0, 1},
		Y:        []int8{1, 0, 0, 1}, // pure noise
	}
	m, _, err := BackwardSelect(Config{}, ds, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ActiveFeatures()) != 1 {
		t.Fatalf("must keep >= 1 feature, kept %d", len(m.ActiveFeatures()))
	}
}

func TestBackwardSelectEmptyValidation(t *testing.T) {
	ds := &ml.Dataset{Features: feats(2), X: []relational.Value{0}, Y: []int8{1}}
	if _, _, err := BackwardSelect(Config{}, ds, &ml.Dataset{Features: feats(2)}); err == nil {
		t.Fatal("expected empty-validation error")
	}
}

func TestAlphaDefaultAndName(t *testing.T) {
	m := New(Config{Alpha: -3})
	if m.cfg.Alpha != 1 {
		t.Fatalf("alpha default not applied: %v", m.cfg.Alpha)
	}
	if m.Name() != "NaiveBayes" {
		t.Fatal("name wrong")
	}
	if math.IsNaN(ln(1)) || ln(1) != 0 {
		t.Fatal("ln broken")
	}
}

func TestForwardSelectFindsSignal(t *testing.T) {
	r := rng.New(71)
	gen := func(n int, rr *rng.RNG) *ml.Dataset {
		ds := &ml.Dataset{Features: feats(2, 8, 8)}
		for i := 0; i < n; i++ {
			x0 := relational.Value(rr.Intn(2))
			y := int8(x0)
			if rr.Bernoulli(0.05) {
				y = 1 - y
			}
			ds.X = append(ds.X, x0, relational.Value(rr.Intn(8)), relational.Value(rr.Intn(8)))
			ds.Y = append(ds.Y, y)
		}
		return ds
	}
	train := gen(400, r)
	val := gen(200, r)
	m, valAcc, err := ForwardSelect(Config{}, train, val)
	if err != nil {
		t.Fatal(err)
	}
	if valAcc < 0.85 {
		t.Fatalf("forward selection validation accuracy %v too low", valAcc)
	}
	kept := m.ActiveFeatures()
	has0 := false
	for _, j := range kept {
		if j == 0 {
			has0 = true
		}
	}
	if !has0 {
		t.Fatalf("forward selection missed the signal feature; kept %v", kept)
	}
}

func TestForwardSelectNeverReturnsEmptyModel(t *testing.T) {
	// Pure-noise data: no addition improves on the prior, so the fallback
	// must still leave one feature active.
	ds := &ml.Dataset{
		Features: feats(2),
		X:        []relational.Value{0, 1, 0, 1},
		Y:        []int8{1, 0, 0, 1},
	}
	m, _, err := ForwardSelect(Config{}, ds, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ActiveFeatures()) != 1 {
		t.Fatalf("want exactly 1 active feature, got %v", m.ActiveFeatures())
	}
}

func TestMutualInformation(t *testing.T) {
	// Perfectly predictive binary feature: MI = H(Y) = 1 bit.
	ds := &ml.Dataset{
		Features: feats(2),
		X:        []relational.Value{0, 0, 1, 1, 0, 0, 1, 1},
		Y:        []int8{0, 0, 1, 1, 0, 0, 1, 1},
	}
	if mi := MutualInformation(ds, 0); math.Abs(mi-1) > 1e-12 {
		t.Fatalf("perfect predictor MI = %v, want 1", mi)
	}
	// Independent feature: MI ≈ 0.
	ds2 := &ml.Dataset{
		Features: feats(2),
		X:        []relational.Value{0, 0, 1, 0, 0, 1, 1, 1},
		Y:        []int8{0, 1, 0, 1, 0, 1, 0, 1},
	}
	if mi := MutualInformation(ds2, 0); mi > 1e-9 {
		t.Fatalf("independent feature MI = %v, want 0", mi)
	}
	if MutualInformation(&ml.Dataset{Features: feats(2)}, 0) != 0 {
		t.Fatal("empty dataset MI must be 0")
	}
}

func TestFilterSelectKeepsTopK(t *testing.T) {
	r := rng.New(73)
	ds := &ml.Dataset{Features: feats(2, 8, 8, 8)}
	for i := 0; i < 600; i++ {
		x0 := relational.Value(r.Intn(2))
		y := int8(x0)
		if r.Bernoulli(0.05) {
			y = 1 - y
		}
		ds.X = append(ds.X, x0, relational.Value(r.Intn(8)), relational.Value(r.Intn(8)), relational.Value(r.Intn(8)))
		ds.Y = append(ds.Y, y)
	}
	m, valAcc, err := FilterSelect(Config{}, ds, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	kept := m.ActiveFeatures()
	if len(kept) != 1 || kept[0] != 0 {
		t.Fatalf("filter must keep exactly the signal feature, kept %v", kept)
	}
	if valAcc < 0.9 {
		t.Fatalf("filter accuracy %v too low", valAcc)
	}
	// k clamping.
	m2, _, err := FilterSelect(Config{}, ds, ds, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.ActiveFeatures()) != 4 {
		t.Fatalf("k beyond d must clamp to d, kept %v", m2.ActiveFeatures())
	}
	if _, _, err := FilterSelect(Config{}, ds, &ml.Dataset{Features: feats(2)}, 1); err == nil {
		t.Fatal("empty validation must error")
	}
}

// TestBatchFitMatchesRowAtATime pins the batch counting path to the
// historical example-at-a-time loop: identical models (priors, conditional
// tables) and identical predictions, on dense and on subset-view datasets.
func TestBatchFitMatchesRowAtATime(t *testing.T) {
	r := rng.New(17)
	ds := &ml.Dataset{Features: feats(4, 7, 2, 300)}
	n := 3000
	for i := 0; i < n; i++ {
		x := []relational.Value{
			relational.Value(r.Intn(4)), relational.Value(r.Intn(7)),
			relational.Value(r.Intn(2)), relational.Value(r.Intn(300)),
		}
		ds.X = append(ds.X, x...)
		y := int8(0)
		if int(x[0])+int(x[3])%3 > 2 {
			y = 1
		}
		ds.Y = append(ds.Y, y)
	}
	sub := make([]int, 0, n/2)
	for i := 0; i < n; i += 2 {
		sub = append(sub, i)
	}
	for name, train := range map[string]*ml.Dataset{
		"dense":         ds,
		"subset-view":   ds.Subset(sub),
		"feature-remap": ds.SelectFeatures([]int{3, 0, 1}),
	} {
		batch := New(Config{})
		if err := batch.Fit(train); err != nil {
			t.Fatalf("%s: batch fit: %v", name, err)
		}
		rows := New(Config{RowAtATime: true})
		if err := rows.Fit(train); err != nil {
			t.Fatalf("%s: row fit: %v", name, err)
		}
		if batch.logPrior != rows.logPrior {
			t.Fatalf("%s: priors diverged: %v vs %v", name, batch.logPrior, rows.logPrior)
		}
		if len(batch.logLik) != len(rows.logLik) {
			t.Fatalf("%s: logLik sizes diverged", name)
		}
		for k := range batch.logLik {
			if batch.logLik[k] != rows.logLik[k] {
				t.Fatalf("%s: logLik[%d] diverged: %v vs %v", name, k, batch.logLik[k], rows.logLik[k])
			}
		}
		buf := make([]relational.Value, train.NumFeatures())
		for i := 0; i < train.NumExamples(); i++ {
			row := train.RowInto(buf, i)
			if batch.Predict(row) != rows.Predict(row) {
				t.Fatalf("%s: prediction %d diverged", name, i)
			}
		}
	}
}

// TestPredictBatchMatchesPredict pins the batched scorer to Predict, example
// by example, on dense, subset-view and feature-remap datasets, with the
// full feature set and with features deactivated.
func TestPredictBatchMatchesPredict(t *testing.T) {
	r := rng.New(23)
	ds := &ml.Dataset{Features: feats(3, 9, 2, 40)}
	for i := 0; i < 1500; i++ {
		x := []relational.Value{
			relational.Value(r.Intn(3)), relational.Value(r.Intn(9)),
			relational.Value(r.Intn(2)), relational.Value(r.Intn(40)),
		}
		ds.X = append(ds.X, x...)
		y := int8(0)
		if int(x[1])+int(x[3])%5 > 6 || r.Bernoulli(0.2) {
			y = 1
		}
		ds.Y = append(ds.Y, y)
	}
	sub := make([]int, 0, 700)
	for i := 0; i < 700; i++ {
		sub = append(sub, r.Intn(1500))
	}
	for name, eval := range map[string]*ml.Dataset{
		"dense":       ds,
		"subset-view": ds.Subset(sub),
	} {
		m := New(Config{})
		if err := m.Fit(ds); err != nil {
			t.Fatal(err)
		}
		for _, off := range [][]int{nil, {1}, {0, 3}} {
			for _, j := range off {
				m.SetActive(j, false)
			}
			got := m.PredictBatch(eval)
			buf := make([]relational.Value, eval.NumFeatures())
			for i := 0; i < eval.NumExamples(); i++ {
				if want := m.Predict(eval.RowInto(buf, i)); got[i] != want {
					t.Fatalf("%s off=%v: example %d batch %d, Predict %d", name, off, i, got[i], want)
				}
			}
			for _, j := range off {
				m.SetActive(j, true)
			}
		}
	}
	remap := ds.SelectFeatures([]int{3, 0})
	m := New(Config{})
	if err := m.Fit(remap); err != nil {
		t.Fatal(err)
	}
	got := m.PredictBatch(remap)
	for i := 0; i < remap.NumExamples(); i++ {
		if want := m.Predict(remap.Row(i)); got[i] != want {
			t.Fatalf("feature-remap: example %d batch %d, Predict %d", i, got[i], want)
		}
	}
}

// TestCandidateScoresFoldInFeatureOrder pins the selection scorer's exact
// fold order. The tables mix tiny and huge terms, so absorption makes the
// scores depend on the order of the additions: any other evaluation order —
// subtracting the dropped feature's column from a full-set sum, or adding a
// new feature's column last — flips predictions here. Every candidate's
// accuracy must equal the SetActive + Predict oracle.
func TestCandidateScoresFoldInFeatureOrder(t *testing.T) {
	r := rng.New(59)
	fs := feats(3, 3, 3, 3, 3, 3)
	terms := []float64{0, -0.1, -0.2, -0.5, -0.3, -1e17, -3e16}
	p := Params{Alpha: 1, LogPrior: [2]float64{-0.2, -0.1}, Active: make([]bool, len(fs))}
	for range 2 * 3 * len(fs) {
		p.LogLik = append(p.LogLik, terms[r.Intn(len(terms))])
	}
	ds := &ml.Dataset{Features: fs}
	for i := 0; i < 400; i++ {
		for range fs {
			ds.X = append(ds.X, relational.Value(r.Intn(3)))
		}
		ds.Y = append(ds.Y, int8(r.Intn(2)))
	}
	for trial := 0; trial < 40; trial++ {
		for j := range p.Active {
			p.Active[j] = r.Bernoulli(0.5)
		}
		m, err := FromParams(fs, p)
		if err != nil {
			t.Fatal(err)
		}
		cols := m.scoreColumns(ds)
		cands := []int{0, 1, 2, 3, 4, 5}
		got := cols.toggled(m.active, cands)
		for c, j := range cands {
			m.SetActive(j, !m.active[j])
			want := 0.0
			for i := 0; i < ds.NumExamples(); i++ {
				if m.Predict(ds.Row(i)) == ds.Label(i) {
					want++
				}
			}
			want /= float64(ds.NumExamples())
			m.SetActive(j, !m.active[j])
			if got[c] != want {
				t.Fatalf("trial %d, active %v, toggle %d: scorer %v, Predict %v", trial, m.active, j, got[c], want)
			}
		}
	}
}
