package main

import (
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ml"
	"repro/internal/model"
)

// smallEnv is Flights at a scale small enough for unit tests.
func smallEnv(t *testing.T) *core.Env {
	t.Helper()
	ss, err := generate(trainDataset, 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	env, err := core.NewEnvEngine(ss, 3, core.EngineColumnar)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func build(t *testing.T, env *core.Env, l learner, meta map[string]string) (*model.Model, core.Result) {
	t.Helper()
	spec, err := l.spec()
	if err != nil {
		t.Fatal(err)
	}
	m, res, err := core.BuildArtifact(env, spec, 3, meta)
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

func TestCheckReloadRejectsWrongAccuracy(t *testing.T) {
	env := smallEnv(t)
	m, res := build(t, env, treeSpec, nil)
	path := filepath.Join(t.TempDir(), "tree.bin")
	if err := model.Save(path, m); err != nil {
		t.Fatal(err)
	}
	if err := checkReload(env, path, res); err != nil {
		t.Fatalf("faithful artifact rejected: %v", err)
	}
	res.TestAcc += 0.01
	if err := checkReload(env, path, res); err == nil {
		t.Error("a build reporting the wrong test accuracy passes")
	}
}

func TestCheckPayloadRejectsDifferingArtifact(t *testing.T) {
	env := smallEnv(t)
	tree, _ := build(t, env, treeSpec, map[string]string{core.MetaEngine: "col"})
	want, err := payload(tree)
	if err != nil {
		t.Fatal(err)
	}
	// Metadata is provenance, not the model: a different engine tag passes.
	same, _ := build(t, env, treeSpec, map[string]string{core.MetaEngine: "seg"})
	if err := checkPayload(same, want); err != nil {
		t.Errorf("same model with other metadata rejected: %v", err)
	}
	other, _ := build(t, env, logregSpec, nil)
	if err := checkPayload(other, want); err == nil {
		t.Error("a different model passes")
	}
}

func TestCheckPredictionRejectsWrongClass(t *testing.T) {
	body := []byte(`{"prediction":1,"score":0.25,"mode":"factorized"}` + "\n")
	if err := checkPrediction(http.StatusOK, body, 1); err != nil {
		t.Errorf("right answer rejected: %v", err)
	}
	if err := checkPrediction(http.StatusOK, body, 0); err == nil {
		t.Error("a wrong class passes")
	}
	if err := checkPrediction(http.StatusTooManyRequests, []byte(`{"error":"shed"}`), 1); err == nil {
		t.Error("a refused request passes")
	}
	if err := checkPrediction(http.StatusOK, []byte(`{"mode":"joined"}`), 1); err == nil {
		t.Error("a response without a prediction passes")
	}
	if got, err := parsePrediction([]byte(`{"prediction":0}`)); err != nil || got != 0 {
		t.Errorf("parsePrediction = %v, %v", got, err)
	}
}

// treeCells is a Table 2 fragment: the gini tree's JoinAll and NoJoin test
// accuracy on Flights and Yelp.
func treeCells(flightsJA, flightsNJ, yelpJA, yelpNJ float64) []experiments.AccuracyCell {
	const gini = "DecisionTree(gini)"
	return []experiments.AccuracyCell{
		{Dataset: "Flights", Model: gini, View: ml.JoinAll, TestAcc: flightsJA, TrainAcc: 0.9},
		{Dataset: "Flights", Model: gini, View: ml.NoJoin, TestAcc: flightsNJ, TrainAcc: 0.9},
		{Dataset: "Yelp", Model: gini, View: ml.JoinAll, TestAcc: yelpJA, TrainAcc: 0.9},
		{Dataset: "Yelp", Model: gini, View: ml.NoJoin, TestAcc: yelpNJ, TrainAcc: 0.9},
	}
}

func TestCheckTreeGap(t *testing.T) {
	rows := map[string]int{"Flights": 4000, "Yelp": 800}
	// Yelp is the known exception; Flights within 1.5 points passes.
	if err := checkTreeGap(treeCells(0.80, 0.79, 0.80, 0.60), rows); err != nil {
		t.Errorf("claim-conforming cells rejected: %v", err)
	}
	// A planted gap of 5 points on Flights is far beyond sampling error.
	if err := checkTreeGap(treeCells(0.80, 0.75, 0.80, 0.80), rows); err == nil || !strings.Contains(err.Error(), "Flights") {
		t.Errorf("planted Flights gap: err = %v", err)
	}
	if err := checkTreeGap(treeCells(0.80, 0.79, 0.80, 0.80)[:1], rows); err == nil {
		t.Error("a missing NoJoin cell passes")
	}
	// The allowance shrinks with the test split: 4,000 rows at 80% add two
	// standard errors of 1.26 points.
	if got := treeGapLimit(4000, 0.8); got < 0.0276 || got > 0.0277 {
		t.Errorf("treeGapLimit(4000, 0.8) = %v", got)
	}
}

func TestCheckSameRejectsChangedCellOrText(t *testing.T) {
	first := tableRun{cells: treeCells(0.8, 0.79, 0.8, 0.7), text: "Table 2\n"}
	if err := checkSame(tableRun{cells: treeCells(0.8, 0.79, 0.8, 0.7), text: "Table 2\n"}, first); err != nil {
		t.Errorf("identical regeneration rejected: %v", err)
	}
	if err := checkSame(tableRun{cells: treeCells(0.8, 0.78, 0.8, 0.7), text: "Table 2\n"}, first); err == nil {
		t.Error("a changed cell passes")
	}
	if err := checkSame(tableRun{cells: treeCells(0.8, 0.79, 0.8, 0.7), text: "Table 2 \n"}, first); err == nil {
		t.Error("changed rendering passes")
	}
}

func TestCheckReplayRejectsWrongOrMissingCell(t *testing.T) {
	cells := treeCells(0.8, 0.79, 0.8, 0.7)
	replayed := map[cellKey][2]float64{}
	for _, c := range cells {
		replayed[cellKey{c.Dataset, c.Model, c.View}] = [2]float64{c.TestAcc, c.TrainAcc}
	}
	if err := checkReplay(replayed, cells[:2], cells[2:]); err != nil {
		t.Errorf("faithful replay rejected: %v", err)
	}
	k := cellKey{"Yelp", "DecisionTree(gini)", ml.NoJoin}
	good := replayed[k]
	replayed[k] = [2]float64{good[0] + 0.001, good[1]}
	if err := checkReplay(replayed, cells); err == nil {
		t.Error("a wrong replayed cell passes")
	}
	replayed[k] = good
	if err := checkReplay(replayed, cells[:3]); err == nil {
		t.Error("a replay with an extra cell passes")
	}
	delete(replayed, k)
	if err := checkReplay(replayed, cells); err == nil {
		t.Error("a replay missing a cell passes")
	}
}
