package nb_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/nb"
	"repro/internal/relational"
	"repro/internal/rng"
)

// rowAccuracy is the historical evaluation: every example gathered into a
// scratch row and classified by Predict, one at a time.
func rowAccuracy(m *nb.NaiveBayes, ds *ml.Dataset) float64 {
	buf := make([]relational.Value, ds.NumFeatures())
	correct := 0
	for i := 0; i < ds.NumExamples(); i++ {
		if m.Predict(ds.RowInto(buf, i)) == ds.Label(i) {
			correct++
		}
	}
	return float64(correct) / float64(ds.NumExamples())
}

// oracleBackward is the historical backward-selection loop: each candidate
// drop toggles the model's mask and rescans the validation split row at a
// time.
func oracleBackward(train, validation *ml.Dataset) (*nb.NaiveBayes, float64, error) {
	model := nb.New(nb.Config{})
	if err := model.Fit(train); err != nil {
		return nil, 0, err
	}
	best := rowAccuracy(model, validation)
	for {
		bestDrop := -1
		bestAcc := best
		for _, j := range model.ActiveFeatures() {
			if len(model.ActiveFeatures()) == 1 {
				break // never drop the last feature
			}
			model.SetActive(j, false)
			acc := rowAccuracy(model, validation)
			model.SetActive(j, true)
			if acc > bestAcc+1e-12 {
				bestAcc = acc
				bestDrop = j
			}
		}
		if bestDrop < 0 {
			return model, best, nil
		}
		model.SetActive(bestDrop, false)
		best = bestAcc
	}
}

// oracleForward is the historical forward-selection loop, including the
// single-best-feature fallback when no addition beats the prior.
func oracleForward(train, validation *ml.Dataset) (*nb.NaiveBayes, float64, error) {
	model := nb.New(nb.Config{})
	if err := model.Fit(train); err != nil {
		return nil, 0, err
	}
	d := train.NumFeatures()
	active := make([]bool, d)
	for j := 0; j < d; j++ {
		model.SetActive(j, false)
	}
	best := rowAccuracy(model, validation)
	added := 0
	for added < d {
		bestAdd := -1
		bestAcc := best
		for j := 0; j < d; j++ {
			if active[j] {
				continue
			}
			model.SetActive(j, true)
			acc := rowAccuracy(model, validation)
			model.SetActive(j, false)
			if acc > bestAcc+1e-12 {
				bestAcc = acc
				bestAdd = j
			}
		}
		if bestAdd < 0 {
			break
		}
		model.SetActive(bestAdd, true)
		active[bestAdd] = true
		best = bestAcc
		added++
	}
	if added == 0 {
		bestJ, bestAcc := 0, -1.0
		for j := 0; j < d; j++ {
			model.SetActive(j, true)
			if acc := rowAccuracy(model, validation); acc > bestAcc {
				bestAcc = acc
				bestJ = j
			}
			model.SetActive(j, false)
		}
		model.SetActive(bestJ, true)
		best = bestAcc
	}
	return model, best, nil
}

type selector func(train, validation *ml.Dataset) (*nb.NaiveBayes, float64, error)

// wrappers pairs each production selection wrapper with its row oracle.
var wrappers = map[string][2]selector{
	"backward": {
		func(tr, va *ml.Dataset) (*nb.NaiveBayes, float64, error) {
			return nb.BackwardSelect(nb.Config{}, tr, va)
		},
		oracleBackward,
	},
	"forward": {
		func(tr, va *ml.Dataset) (*nb.NaiveBayes, float64, error) {
			return nb.ForwardSelect(nb.Config{}, tr, va)
		},
		oracleForward,
	},
}

// TestSelectionMatchesRowOracle pins the batched selection wrappers to the
// historical per-row loops: identical selected features, validation
// accuracy and per-example test classes on Flights, Yelp and Expedia, under
// JoinAll and NoJoin, on the row, columnar and segmented engines.
func TestSelectionMatchesRowOracle(t *testing.T) {
	old := core.SegmentDefaults
	core.SegmentDefaults = relational.SegmentOptions{SegmentSize: 128}
	defer func() { core.SegmentDefaults = old }()
	for dsName, scale := range map[string]int{"Flights": 64, "Yelp": 128, "Expedia": 256} {
		spec, err := dataset.SpecByName(dsName)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := dataset.Generate(spec, scale, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []core.Engine{core.EngineRow, core.EngineColumnar, core.EngineSegmented} {
			env, err := core.NewEnvEngine(ss, 7, engine)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []ml.View{ml.JoinAll, ml.NoJoin} {
				train, val, test, err := env.ViewSplits(v, nil)
				if err != nil {
					t.Fatal(err)
				}
				for wname, w := range wrappers {
					cell := dsName + "/" + engine.String() + "/" + v.String() + "/" + wname
					got, gotAcc, err := w[0](train, val)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					want, wantAcc, err := w[1](train, val)
					if err != nil {
						t.Fatalf("%s: oracle: %v", cell, err)
					}
					if gotAcc != wantAcc {
						t.Fatalf("%s: validation accuracy %v, oracle %v", cell, gotAcc, wantAcc)
					}
					if g, o := got.ActiveFeatures(), want.ActiveFeatures(); !slices.Equal(g, o) {
						t.Fatalf("%s: selected %v, oracle %v", cell, g, o)
					}
					if g, o := ml.Accuracy(got, test), rowAccuracy(want, test); g != o {
						t.Fatalf("%s: test accuracy %v, oracle %v", cell, g, o)
					}
				}
			}
			if err := env.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSelectionMatchesRowOracleSynthetic widens the oracle comparison to
// small noisy datasets — many near-ties between candidates, and pure noise
// that sends forward selection to its single-feature fallback.
func TestSelectionMatchesRowOracleSynthetic(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		r := rng.New(seed)
		card := 2 + int(seed%4)
		gen := func(n int) *ml.Dataset {
			ds := &ml.Dataset{}
			for j := 0; j < 7; j++ {
				ds.Features = append(ds.Features, ml.Feature{Name: fmt.Sprintf("f%d", j), Cardinality: card})
			}
			for i := 0; i < n; i++ {
				sum := 0
				for j := 0; j < 7; j++ {
					v := r.Intn(card)
					sum += v
					ds.X = append(ds.X, relational.Value(v))
				}
				y := int8(0)
				if seed%3 != 0 && sum%card == 0 || r.Bernoulli(0.3) {
					y = 1
				}
				ds.Y = append(ds.Y, y)
			}
			return ds
		}
		train, val := gen(120), gen(45)
		for wname, w := range wrappers {
			got, gotAcc, err := w[0](train, val)
			if err != nil {
				t.Fatal(err)
			}
			want, wantAcc, err := w[1](train, val)
			if err != nil {
				t.Fatal(err)
			}
			if gotAcc != wantAcc || !slices.Equal(got.ActiveFeatures(), want.ActiveFeatures()) {
				t.Fatalf("seed %d %s: got %v at %v, oracle %v at %v",
					seed, wname, got.ActiveFeatures(), gotAcc, want.ActiveFeatures(), wantAcc)
			}
		}
	}
}
